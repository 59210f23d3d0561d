"""Finite rings as explicit operation tables.

Elements of a ring of order N are the dense integer ids 0..N-1; addition and
multiplication are N x N lookup tables.  Every subset of a ring is an integer
bit-mask over element ids, so everything downstream (ideals, multiplicative
sets, localizations) reduces to set algebra on small integers.

Tables are immutable after construction and every constructor runs the full
axiom audit (group laws, associativity, identities, distributivity), so a
corrupted table is caught at the door rather than as a wrong theorem verdict.
Within a verification run the constructors also intern their tables: a table
whose content was already built in the run is replaced by the first one, so
each content is audited once and its derived data is computed once, and a
constructor called again on the same operands returns the run's table without
building it again.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import operator
from dataclasses import dataclass, field

Mask = int

DEFAULT_ORDER_CAP = 16
GF_ORDERS = (2, 3, 4)  # the fields `make_gf` builds


class RingError(Exception):
    """Base class for errors raised by the ring engine."""


class InvalidOrderError(RingError):
    pass


class SizeLimitError(RingError):
    """A construction would exceed the configured order cap."""


class SidednessError(RingError):
    """An ideal does not have the sidedness required by an operation."""


class ImproperIdealError(RingError):
    """The whole ring was passed where a proper ideal is required."""


class EngineInvariantError(RingError):
    """An internal cross-check failed; this always signals an engine bug."""


# ---------------------------------------------------------------------------
# bit-mask helpers

# _BYTE_IDS[b] and _HIGH_IDS[b]: the ids of the set bits of a byte b, as bits
# 0-7 and as bits 8-15 of a mask
_BYTE_IDS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
_HIGH_IDS = tuple(tuple(i + 8 for i in ids) for ids in _BYTE_IDS)
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digit -> its truth value


def bits(mask: Mask) -> tuple[int, ...]:
    """The element ids present in a mask, ascending, as a tuple: read from a
    byte table below 2^8, from two below 2^16, and above from the mask's
    binary digits, lowest first."""
    if mask < 256:
        return _BYTE_IDS[mask]
    if mask < 65536:
        return _BYTE_IDS[mask & 255] + _HIGH_IDS[mask >> 8]
    flags = bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)  # flags[i]: bit i
    return tuple(itertools.compress(range(len(flags)), flags))


def mask_of(ids) -> Mask:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def canonical(masks) -> tuple[Mask, ...]:
    """The masks in the one order every mask family is listed in: by size,
    then by value."""
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def subsets(items, smallest: int = 0):
    """Yield the subsets of items with at least `smallest` members as tuples,
    by size, each size in itertools.combinations order."""
    items = tuple(items)
    for size in range(smallest, len(items) + 1):
        yield from itertools.combinations(items, size)


def memo(fn):
    """Memoise fn(owner, *args) in owner.memo[fn], a table keyed by args.

    Derived data lives in a dict owned by the object it is derived from, so it
    is freed together with that object instead of in a process-global cache.
    Each memoised function has its own table in that dict, so a lookup builds
    no key of (fn, *args).  Most memoised functions read the owner and one
    more argument; their table is keyed by that argument itself, with no
    tuple around it, and a function of the owner alone keeps its one value
    in place of a table.  The memoised function takes its arguments by
    position only.
    """
    code = fn.__code__
    fixed = not (fn.__defaults__ or code.co_kwonlyargcount or code.co_flags & inspect.CO_VARARGS)
    if fixed and code.co_argcount == 1:
        @functools.wraps(fn)
        def cached_value(owner):
            try:
                return owner.memo[fn]
            except KeyError:
                value = owner.memo[fn] = fn(owner)
                return value
        return cached_value

    if fixed and code.co_argcount == 2:
        @functools.wraps(fn)
        def cached_by_arg(owner, arg):
            try:
                return owner.memo[fn][arg]
            except KeyError:
                table = owner.memo.setdefault(fn, {})
                value = table[arg] = fn(owner, arg)
                return value
        return cached_by_arg

    @functools.wraps(fn)
    def cached(owner, *args):
        try:
            return owner.memo[fn][args]
        except KeyError:
            table = owner.memo.setdefault(fn, {})
            value = table[args] = fn(owner, *args)
            return value
    return cached


@dataclass(frozen=True, eq=False)
class RingTable:
    """A finite unital ring given by explicit addition/multiplication tables."""

    order: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    label: str
    names: tuple[str, ...] = field(repr=False, default=())
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.names:
            object.__setattr__(self, "names", tuple(str(i) for i in range(self.order)))

    def __repr__(self):
        return f"RingTable({self.label}, order={self.order})"

    def elements(self) -> range:
        return range(self.order)

    def name(self, i: int) -> str:
        return self.names[i]

    def full_mask(self) -> Mask:
        return (1 << self.order) - 1


@dataclass(frozen=True, eq=False)
class RingHom:
    """A unital ring homomorphism between two tables, as an element map."""

    source: RingTable
    target: RingTable
    map: tuple[int, ...]
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, i: int) -> int:
        return self.map[i]

    def verify(self) -> str | None:
        """The first homomorphism-law fault of the map, or None when it is a
        unital ring homomorphism.

        Each row of the source's tables is compared whole with the target's
        row at its image; only a row that differs is walked cell by cell, to
        name its first failing pair, so the fault is the first of the
        pairwise loop over (a, b).  (On a one-element source the whole-row
        comparison never holds, and the walk decides.)"""
        s, t, m = self.source, self.target, self.map
        if m[s.zero] != t.zero:
            return "map(0) != 0"
        if m[s.one] != t.one:
            return "map(1) != 1"
        image = m.__getitem__
        at_images = operator.itemgetter(*m)  # a target row read at m(b) for every b
        for a in s.elements():
            # m(a + b) == m(a) + m(b) and m(ab) == m(a)m(b) for every b
            if (tuple(map(image, s.add[a])) == at_images(t.add[m[a]])
                    and tuple(map(image, s.mul[a])) == at_images(t.mul[m[a]])):
                continue
            for b in s.elements():
                if m[s.add[a][b]] != t.add[m[a]][m[b]]:
                    return f"additivity fails at ({a},{b})"
                if m[s.mul[a][b]] != t.mul[m[a]][m[b]]:
                    return f"multiplicativity fails at ({a},{b})"
        return None

    def image_mask(self) -> Mask:
        return mask_of(self.map)

    def kernel_mask(self) -> Mask:
        z = self.target.zero
        return mask_of(i for i in self.source.elements() if self.map[i] == z)

    def preimage_mask(self, target_mask: Mask) -> Mask:
        return mask_of(i for i in self.source.elements() if target_mask >> self.map[i] & 1)

    def push_mask(self, source_mask: Mask) -> Mask:
        return mask_of(map(self.map.__getitem__, bits(source_mask)))

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.order

    def is_bijective(self) -> bool:
        return self.is_injective() and self.source.order == self.target.order

    def is_isomorphism(self) -> bool:
        return self.is_bijective() and self.verify() is None

    def then(self, g: RingHom) -> RingHom:
        """g after self."""
        return RingHom(self.source, g.target, tuple(g.map[y] for y in self.map))


# in the class body, the name memo is the dataclass field
RingHom.kernel_mask = memo(RingHom.kernel_mask)
RingHom.preimage_mask = memo(RingHom.preimage_mask)
RingHom.push_mask = memo(RingHom.push_mask)


@memo
def element_invariants(r: RingTable) -> tuple[tuple[int, int, int, bool, bool], ...]:
    """Per element x, what any ring isomorphism preserves: the additive order
    of x, the index and period of its powers (the least i < j with
    x^i == x^j gives i and j - i), whether x is idempotent and whether x^2 is
    zero.  Read from the four tables alone."""
    out = []
    for x in r.elements():
        k, y = 1, x
        while y != r.zero and k <= r.order:  # bounded on a table that is no ring
            y, k = r.add[y][x], k + 1
        first, p = {}, x
        while p not in first:
            first[p] = len(first) + 1
            p = r.mul[p][x]
        square = r.mul[x][x]
        out.append((k, first[p], len(first) + 1 - first[p], square == x, square == r.zero))
    return tuple(out)


def invariant_key(r: RingTable) -> tuple:
    """Equal for isomorphic tables: the order and the multiset of element
    invariants.  Tables with different keys are never isomorphic."""
    return r.order, tuple(sorted(element_invariants(r)))


def isomorphism(a: RingTable, b: RingTable) -> RingHom | None:
    """A ring isomorphism a -> b, or None when there is none.

    Invariant-refined backtracking: an unmapped element of a is sent to each
    unused element of b with its invariants in turn, and the partial map is
    closed under both operations, so each choice fixes the subring it
    generates and a conflict prunes the branch.  A map is returned only if it
    is bijective and RingHom.verify() returns None, so an invariant that is
    wrong could only miss an isomorphism, never report a false one.
    """
    if invariant_key(a) != invariant_key(b):
        return None
    inv_a, inv_b = element_invariants(a), element_invariants(b)
    cells: dict[tuple, list[int]] = {}  # invariant -> the elements of b with it
    for y in b.elements():
        cells.setdefault(inv_b[y], []).append(y)

    def extend(fwd, back, x, y):
        """fwd and its inverse back, extended by x -> y and closed under + and
        *, or None on a conflict."""
        fwd, back = fwd[:], back[:]
        mapped = [u for u in a.elements() if fwd[u] >= 0]
        queue = [(x, y)]
        while queue:
            x, y = queue.pop()
            if fwd[x] >= 0:
                if fwd[x] != y:
                    return None
                continue
            if back[y] >= 0 or inv_a[x] != inv_b[y]:
                return None
            fwd[x], back[y] = y, x
            mapped.append(x)
            for u in mapped:
                v = fwd[u]
                queue += ((a.add[x][u], b.add[y][v]), (a.mul[x][u], b.mul[y][v]),
                          (a.mul[u][x], b.mul[v][y]))
        return fwd, back

    def search(state):
        if state is None:
            return None
        fwd, back = state
        free = [x for x in a.elements() if fwd[x] < 0]
        if not free:
            hom = RingHom(a, b, tuple(fwd))
            return hom if hom.is_isomorphism() else None
        x = min(free, key=lambda u: (len(cells[inv_a[u]]), u))  # fewest candidates first
        for y in cells[inv_a[x]]:
            if back[y] < 0:
                hom = search(extend(fwd, back, x, y))
                if hom is not None:
                    return hom
        return None

    return search(extend([-1] * a.order, [-1] * b.order, a.one, b.one))


# ---------------------------------------------------------------------------
# axiom audit

@memo
def audit_ring(r: RingTable) -> str | None:
    """The first ring-axiom violation of the table, or None when it is a ring.

    The audit never raises; constructors assert that it returns None, while
    the verification harness runs it on every corpus instance so an injected
    table fault is reported as a counterexample instead of a wrong verdict.
    Memoised on the table, so the harness reads a constructor's audit from
    the memo.  The laws in one or two elements are read directly and return
    at their first failure; on a table that passes them, the laws in three
    elements are decided on additive generators (`_triple_law_violation`).
    """
    n = r.order
    add, mul = r.add, r.mul
    if n < 2:
        return "order < 2"
    if len(add) != n or len(mul) != n or any(len(row) != n for row in add + mul):
        return "table shape mismatch"
    for row in add + mul:
        if min(row) < 0 or max(row) >= n:
            return f"entry {next(v for v in row if not 0 <= v < n)} out of range"
    z, e = r.zero, r.one
    if z == e:
        return "zero == one"
    columns = tuple(zip(*add))
    for a in range(n):
        if add[a][z] != a or add[z][a] != a:
            return f"zero is not an additive identity at {a}"
        if mul[a][e] != a or mul[e][a] != a:
            return f"one is not a multiplicative identity at {a}"
        if z not in add[a]:
            return f"{a} has no additive inverse"
        if add[a] != columns[a]:
            b = next(b for b in range(n) if add[a][b] != add[b][a])
            return f"addition not commutative at ({a},{b})"
    return _triple_law_violation(r)


def _additive_generators(r: RingTable) -> list[int]:
    """Greedy generators of (R, +): each is the least element outside the
    sums 0 + g1 + g2 + ... (bracketed from the left) of the ones before it.
    Read from the addition table alone, which need not be associative."""
    add = r.add
    gens: list[int] = []
    reached, members = 1 << r.zero, [r.zero]
    for g in range(r.order):
        if reached >> g & 1:
            continue
        gens.append(g)
        frontier, step = members[:], [g]  # the old sums need only + g
        while frontier:
            fresh = []
            for x in frontier:
                row = add[x]
                for h in step:
                    y = row[h]
                    if not reached >> y & 1:
                        reached |= 1 << y
                        fresh.append(y)
            members += fresh
            frontier, step = fresh, gens
    return gens


def _triple_law_violation(r: RingTable) -> str | None:
    """The first failure of additive or multiplicative associativity or of
    a distributive law, or None, on a table whose laws in one or two
    elements hold (identities, additive inverses, commutative addition).
    The moving element is a generator g of (R, +), and each law is compared
    a whole row at a time: the first row that differs names its first
    failing cell, as (x, g, y), or as (a, b, c) with a and b generators for
    multiplicative associativity.  Generators suffice:

    * the x with (u + x) + v = u + (x + v) for all u, v are closed under
      + (Light's test), so containing the generators they are all of R;
    * then (R, +) is a finite group, every element a nonempty sum of
      generators, and the c with a(b + c) = ab + ac for all b are closed
      under +, and likewise on the right;
    * then (ab)c - a(bc) is additive in each of a, b and c, so it vanishes
      once it vanishes with a and b generators.

    The cost is about 3 |G| n^2 entry reads instead of 4 n^3.
    """
    add, mul = r.add, r.mul
    gens = _additive_generators(r)
    by_row = [operator.itemgetter(*row) for row in mul]
    columns = tuple(zip(*mul))
    by_column = [operator.itemgetter(*col) for col in columns]
    for g in gens:
        plus_g = operator.itemgetter(*add[g])  # reads a row at g + y, for every y
        for x in range(r.order):
            # (x + g) + y == x + (g + y)
            lhs, rhs = add[add[x][g]], plus_g(add[x])
            if lhs != rhs:
                return _violation("addition not associative", x, g, lhs, rhs)
            # x(g + y) == xg + xy and (g + y)x == gx + yx
            row, col = mul[x], columns[x]
            lhs, rhs = plus_g(row), by_row[x](add[row[g]])
            if lhs != rhs:
                return _violation("left distributivity fails", x, g, lhs, rhs)
            lhs, rhs = plus_g(col), by_column[x](add[col[g]])
            if lhs != rhs:
                return _violation("right distributivity fails", x, g, lhs, rhs)
    for a in gens:
        for b in gens:
            # (ab)c == a(bc) for every c
            lhs, rhs = mul[mul[a][b]], by_row[b](mul[a])
            if lhs != rhs:
                return _violation("multiplication not associative", a, b, lhs, rhs)
    return None


def _violation(law: str, a: int, b: int, lhs: tuple, rhs: tuple) -> str:
    """law's message at (a, b, c), c the first index where the rows differ."""
    c = next(c for c, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
    return f"{law} at ({a},{b},{c})"


# content, and constructor call, -> the run's table; None outside a run
_INTERN: contextvars.ContextVar[dict | None] = contextvars.ContextVar("intern", default=None)


def content(r: RingTable) -> tuple:
    """What makes two tables the same ring; labels and element names aside."""
    return r.order, r.add, r.mul, r.zero, r.one


@contextlib.contextmanager
def interning():
    """Within the block, constructors share one table object per content.

    The objects themselves are shared, never their memo dicts: a memoised
    RingHom is bound to the identity of the ring it was built on.  A block
    opened inside another joins it, so a command that builds its corpus and
    then runs it builds each content once.  When the outermost block ends,
    the memo of every table it interned is emptied, and with it the factor
    maps that only those memos reach; a map in a table's memo that points
    back at the table is freed then rather than left as a reference cycle
    for the cyclic garbage collector.  Quotients and centres are interned
    as constructed tables are, and monomial quotients by their ideal
    (`interned`), as are other immutable values shared within a run, which
    have no memo.  A memo is a dict of per-function tables, and emptying it
    drops them all.
    """
    if _INTERN.get() is not None:  # join the enclosing block
        yield
        return
    seen: dict = {}
    token = _INTERN.set(seen)
    try:
        yield
    finally:
        _INTERN.reset(token)
        for obj in seen.values():
            if hasattr(obj, "memo"):
                obj.memo.clear()


def _audited(r: RingTable) -> RingTable:
    fault = audit_ring(r)
    if fault is not None:
        raise EngineInvariantError(f"constructed table fails audit: {fault}")
    return r


def _checked(r: RingTable) -> RingTable:
    """Audit a constructed table; within a run, audit each content once and
    return the run's first table of r's content."""
    seen = _INTERN.get()
    if seen is None:
        return _audited(r)
    key = content(r)
    if key not in seen:
        seen[key] = _audited(r)
    return seen[key]


def interned(obj):
    """Within an interning block, the block's first object equal to obj."""
    seen = _INTERN.get()
    return obj if seen is None else seen.setdefault(obj, obj)


def _built(key: tuple, build) -> RingTable:
    """The table build() constructs, checked; within a run, a constructor
    call already made with the same key (its name and operands) returns the
    run's table without building it again."""
    seen = _INTERN.get()
    if seen is None:
        return _audited(build())
    if key not in seen:
        seen[key] = _checked(build())
    return seen[key]


# ---------------------------------------------------------------------------
# constructors

def make_zmod(n: int, label: str | None = None) -> RingTable:
    """The ring of integers modulo n, with canonical ids 0..n-1."""
    if n < 2:
        raise InvalidOrderError(f"zmod order must be >= 2, got {n}")

    def build():
        add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        mul = tuple(tuple((a * b) % n for b in range(n)) for a in range(n))
        return RingTable(n, add, mul, 0, 1, label or f"zmod({n})")
    return _built(("zmod", n), build)


def make_gf(q: int) -> RingTable:
    """The field with q elements, q in GF_ORDERS."""
    if q not in GF_ORDERS:
        raise InvalidOrderError(f"gf supports q in {{2,3,4}}, got {q}")
    if q in (2, 3):
        return make_zmod(q, label=f"gf({q})")
    # F4 as F2[x]/(x^2+x+1); id = c0 + 2*c1 encodes c0 + c1*x.
    def mul4(a, b):
        a0, a1 = a & 1, a >> 1
        b0, b1 = b & 1, b >> 1
        c0 = a0 * b0
        c1 = a0 * b1 + a1 * b0
        c2 = a1 * b1
        return ((c0 + c2) & 1) | (((c1 + c2) & 1) << 1)

    def build():
        add = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
        mul = tuple(tuple(mul4(a, b) for b in range(4)) for a in range(4))
        return RingTable(4, add, mul, 0, 1, "gf(4)", ("0", "1", "t", "t+1"))
    return _built(("gf", 4), build)


def _digits(idx: int, base: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(idx % base)
        idx //= base
    return tuple(out)


def _make_slot_ring(k: int, base: RingTable, triangular: bool, cap: int | None) -> RingTable:
    """k x k matrices over a commutative base with entries at every (row,
    column) slot, or only on and above the diagonal; an element's digits are
    its slot entries in row-major order."""
    tag, noun = ("tri", "triangular") if triangular else ("mat", "matrix")
    if k < 1:
        raise InvalidOrderError(f"{tag} needs a matrix size k >= 1, got k = {k}")
    if centre_mask(base) != base.full_mask():
        raise RingError(f"{noun} rings are only built over commutative bases")
    nslots = k * (k + 1) // 2 if triangular else k * k
    # the order is at least 2^nslots, so a cap of at most nslots bits is
    # exceeded without forming the order, which may have millions of digits
    if cap is not None and (nslots >= cap.bit_length() or base.order ** nslots > cap):
        raise SizeLimitError(
            f"{tag}({k}, {base.label}) has order {base.order}^{nslots} > cap {cap}")

    def build():
        order = base.order ** nslots
        slots = [(i, j) for i in range(k) for j in range(i if triangular else 0, k)]
        pos = {ij: s for s, ij in enumerate(slots)}
        weights = [base.order ** s for s in range(nslots)]  # digit s counts base^s
        mats = [_digits(i, base.order, nslots) for i in range(order)]
        badd, bmul, zero = base.add, base.mul, base.zero

        def at(m, i, j):
            s = pos.get((i, j))
            return zero if s is None else m[s]

        def undigits(digits) -> int:
            return sum(map(operator.mul, digits, weights))

        grids = [[[at(m, i, j) for j in range(k)] for i in range(k)] for m in mats]

        def mulm(ga, gb):
            out = []
            for (i, j) in slots:
                acc = zero
                for t, x in enumerate(ga[i]):
                    acc = badd[acc][bmul[x][gb[t][j]]]
                out.append(acc)
            return undigits(out)

        add = tuple(tuple(undigits([badd[x][y] for x, y in zip(a, b)]) for b in mats)
                    for a in mats)
        mul = tuple(tuple(mulm(ga, gb) for gb in grids) for ga in grids)
        one = undigits([base.one if i == j else zero for (i, j) in slots])
        names = tuple(
            "[" + ";".join(
                ",".join(base.name(at(m, i, j)) if (i, j) in pos else "." for j in range(k))
                for i in range(k)
            ) + "]"
            for m in mats
        )
        return RingTable(order, add, mul, 0, one, f"{tag}({k}, {base.label})", names)
    return _built((tag, k, base), build)


def make_matrix_ring(k: int, base: RingTable, cap: int | None = DEFAULT_ORDER_CAP) -> RingTable:
    """Full k x k matrix ring over a commutative base, row-major encoding."""
    return _make_slot_ring(k, base, triangular=False, cap=cap)


def make_upper_triangular(k: int, base: RingTable, cap: int | None = DEFAULT_ORDER_CAP) -> RingTable:
    """Upper-triangular k x k matrices over a commutative base."""
    return _make_slot_ring(k, base, triangular=True, cap=cap)


def make_product(a: RingTable, b: RingTable, cap: int | None = DEFAULT_ORDER_CAP) -> RingTable:
    """Direct product with componentwise operations, lexicographic encoding."""
    order = a.order * b.order
    if cap is not None and order > cap:
        raise SizeLimitError(f"prod({a.label}, {b.label}) has order {order} > cap {cap}")

    def enc(x, y):
        return x * b.order + y

    def rows(a_table, b_table):
        """The rows of (x, y) at every (u, v): enc(a_table[x][u], b_table[y][v])."""
        return tuple(
            tuple(p + q for p in scaled for q in b_row)
            for scaled in ([p * b.order for p in a_row] for a_row in a_table)
            for b_row in b_table
        )

    def build():
        names = tuple(f"({a.name(x)},{b.name(y)})" for x in a.elements() for y in b.elements())
        return RingTable(order, rows(a.add, b.add), rows(a.mul, b.mul), enc(a.zero, b.zero),
                         enc(a.one, b.one), f"prod({a.label}, {b.label})", names)
    return _built(("prod", a, b), build)


def product_hom(homs: list[RingHom]) -> RingHom:
    """The map x -> (f(x))_f from the common source into the product of the
    targets, folded left as prod(prod(t1, t2), t3) with no order cap."""
    first = homs[0]
    prod, combined = first.target, first.map
    for h in homs[1:]:
        prod = make_product(prod, h.target, cap=None)
        combined = tuple(combined[x] * h.target.order + h(x) for x in first.source.elements())
    return RingHom(first.source, prod, combined)


@memo
def additive_span(r: RingTable, gens: Mask) -> Mask:
    """The additive subgroup generated by gens, one coset at a time: a
    generator g outside the subgroup H so far adds H + g, H + 2g, ... up to
    the first multiple of g back in H.  Each element is formed once, by
    adding a generator; in a finite group the submonoid generated by a set
    is the subgroup it generates."""
    add = r.add
    group, span = [r.zero], 1 << r.zero
    for g in bits(gens):
        if span >> g & 1:
            continue
        coset = list(map(add[g].__getitem__, group))  # H + g
        while not span >> coset[0] & 1:  # coset[0] is k*g, as group[0] is zero
            group += coset
            span |= mask_of(coset)
            coset = list(map(add[g].__getitem__, coset))
    return span


def is_two_sided_ideal_mask(r: RingTable, mask: Mask) -> bool:
    """Closed under multiples on both sides, and its own additive span (so
    it holds zero)."""
    right, left = products(r)[:2]
    for a in bits(mask):
        if (right[a] | left[a]) & ~mask:
            return False
    return additive_span(r, mask) == mask


@memo
def make_quotient(r: RingTable, ideal_mask: Mask) -> tuple[RingTable, RingHom]:
    """Quotient by a proper two-sided ideal, plus the canonical surjection.

    Coset representatives are the least element id in each coset.  Memoised on
    r, so repeated quotients by the same ideal share one table object.
    """
    if not is_two_sided_ideal_mask(r, ideal_mask):
        raise SidednessError("quotient requires a two-sided ideal")
    if ideal_mask == r.full_mask():
        raise ImproperIdealError("cannot quotient by the whole ring")
    rep = [-1] * r.order
    reps = []
    for x in r.elements():
        if rep[x] >= 0:
            continue
        coset = sorted(r.add[x][i] for i in bits(ideal_mask))
        lead = coset[0]
        reps.append(lead)
        for y in coset:
            rep[y] = lead
    reps.sort()
    index = {v: i for i, v in enumerate(reps)}
    n = len(reps)
    coset_of = [index[rep[x]] for x in r.elements()]  # x -> the id of its coset
    at_reps = operator.itemgetter(*reps)  # a proper ideal has at least two cosets
    add = tuple(tuple(map(coset_of.__getitem__, at_reps(r.add[a]))) for a in reps)
    mul = tuple(tuple(map(coset_of.__getitem__, at_reps(r.mul[a]))) for a in reps)
    zero = coset_of[r.zero]
    one = coset_of[r.one]
    names = tuple(f"{r.name(v)}~" for v in reps)
    ideal_text = ",".join(str(i) for i in bits(ideal_mask))
    q = _checked(RingTable(n, add, mul, zero, one, f"{r.label}/({ideal_text})", names))
    hom = RingHom(r, q, tuple(coset_of))
    return q, hom


# ---------------------------------------------------------------------------
# distinguished element sets

@memo
def products(r: RingTable) -> tuple[tuple[Mask, ...], tuple[Mask, ...], tuple[Mask, ...], tuple[Mask, ...]]:
    """The one-sided multiples and annihilators of every element x, as four
    tuples of masks indexed by x: xR, Rx, {t : xt = 0} and {t : tx = 0}.

    Read from the rows and the columns of the multiplication table; ideals,
    Ore conditions and vanishing ideals read their products here.
    """
    zero = r.zero
    weights = [1 << x for x in r.elements()]

    def mask_of_set(ids):
        return sum(map(weights.__getitem__, set(ids)))

    def zeros(ids):
        return sum(itertools.compress(weights, map(zero.__eq__, ids)))

    columns = tuple(zip(*r.mul))
    return (tuple(map(mask_of_set, r.mul)), tuple(map(mask_of_set, columns)),
            tuple(map(zeros, r.mul)), tuple(map(zeros, columns)))


@memo
def units_mask(r: RingTable) -> Mask:
    """Elements with 1 in xR and in Rx; by associativity the left and the
    right inverse coincide."""
    right, left = products(r)[:2]
    return mask_of(x for x in r.elements() if (right[x] & left[x]) >> r.one & 1)


@memo
def inverse_table(r: RingTable) -> dict[int, int]:
    """The inverse of each unit: its right inverse, which is its left one."""
    return {x: r.mul[x].index(r.one) for x in bits(units_mask(r))}


@memo
def regular_mask(r: RingTable) -> Mask:
    """Elements that are neither left nor right zero divisors."""
    zero = 1 << r.zero
    _, _, kills, killed_by = products(r)
    return mask_of(x for x in r.elements() if kills[x] == killed_by[x] == zero)


@memo
def centre_mask(r: RingTable) -> Mask:
    columns = tuple(zip(*r.mul))
    return mask_of(x for x in r.elements() if r.mul[x] == columns[x])


@memo
def normal_mask(r: RingTable) -> Mask:
    """Elements x with Rx = xR."""
    right, left = products(r)[:2]
    return mask_of(x for x in r.elements() if right[x] == left[x])


def is_commutative(r: RingTable) -> bool:
    return centre_mask(r) == r.full_mask()
