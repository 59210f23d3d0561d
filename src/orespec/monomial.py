"""Monomial algebras: the track where localization statements are not trivial.

Two families live here.

* Commutative monomial quotients k[v1..vn]/I for a monomial ideal I.  Their
  minimal primes are exactly the minimal vertex covers of the generator
  supports, and localizing at a set of variables realizes its vanishing ideal
  as the monomial saturation (strip those variables from every generator).

* A noncommutative family pairing free generators x_i against central
  polynomial generators z_i through the relations x_i*z_i = 0.  Monomials have
  the normal form (word over the x alphabet) x (exponent vector over the z's),
  zero exactly when the word support meets the exponent support.  The x
  alphabet carries two spare letters beyond the paired ones: without them a
  single-letter word dressed with all the complementary z's (x1*z2*...*zn, or
  any x-power when n = 1) commutes with every generator, the centre grows past
  the z-polynomials, and the whole restriction-map counterexample collapses.
  With the spares the centre is exactly the z-polynomial algebra, which the
  degree-bounded scans verify rather than assume.

Everything in this module is checked at a bounded total degree; reports say
"verified to degree d", never "proved".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .finring import RingError, SizeLimitError, bits, interned, mask_of, memo, subsets


class CollapsedLocalizationError(RingError):
    """The inverted variables meet the ideal; the localized ring is zero."""


SPARE_LETTERS = 2

# min_primes_monomial sweeps all 2^n variable subsets: with one generator it
# took 0.4 s at n = 16, 2.4 s at n = 20 and 37 s at n = 24 (Python 3.11,
# 2 shared cores)
MAX_MONO_VARS = 16

# the pairing-algebra scans run over the first normal forms of the
# (degree, wmask, zmask) classes, built in closed form, so their cost follows
# the classes and their products, not the normal forms: an(2, 8) has 97,679
# normal forms in 232 classes and an(3, 7) 122,068 in 533, and `an verify`
# takes 0.012 s and 0.032 s on them (process CPU, Python 3.11, 2 shared
# cores); an(3, 8) has 583,355 and an(4, 8) 2,566,955 (an_monomial_count).
# The bound on the normal forms stays: it fixes which algebras are verified
# and what exits 3
MAX_AN_MONOMIALS = 125_000


def check_var_count(nvars: int) -> None:
    """Refuse a monomial quotient too wide for the minimal-cover sweep."""
    if nvars > MAX_MONO_VARS:
        raise SizeLimitError(f"{nvars} variables > {MAX_MONO_VARS}")


def default_degree_bound(nvars: int) -> int:
    if nvars <= 2:
        return 6
    if nvars == 3:
        return 5
    return 4


# ---------------------------------------------------------------------------
# commutative monomial quotients

def minimize_generators(gens) -> tuple[tuple[int, ...], ...]:
    """Drop generators divisible by another; the result is the unique minimal set."""
    uniq = sorted(set(tuple(g) for g in gens))
    keep = [g for g in uniq if not monomial_in_ideal(g, (h for h in uniq if h != g))]
    return tuple(sorted(keep))


@dataclass(frozen=True)
class CommMonomialRing:
    """k[v1..vn]/I for a monomial ideal I given by minimal exponent vectors."""

    nvars: int
    gens: tuple[tuple[int, ...], ...]
    degree_bound: int
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"CommMonomialRing(vars={self.nvars}, gens={[render_monomial(g) for g in self.gens]})"


def render_monomial(exp: tuple[int, ...]) -> str:
    parts = [f"v{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e]
    return "*".join(parts) if parts else "1"


def make_monomial_ring(nvars: int, gens) -> CommMonomialRing:
    if nvars < 1:
        raise RingError("need at least one variable")
    check_var_count(nvars)
    norm = []
    for g in gens:
        g = tuple(g)
        if len(g) != nvars or any(e < 0 for e in g):
            raise RingError(f"bad exponent vector {g}")
        norm.append(g)
    gens = minimize_generators(norm)
    return interned(("mono", nvars, gens),
                    lambda: CommMonomialRing(nvars, gens, default_degree_bound(nvars)))


def monomial_in_ideal(exp: tuple[int, ...], gens) -> bool:
    """Whether some generator divides exp, exponent by exponent."""
    le = operator.le
    for g in gens:
        if all(map(le, g, exp)):
            return True
    return False


def support(exp: tuple[int, ...]) -> int:
    """The variables of a monomial as a mask, bit i for v_{i+1}, as every set
    of variables here is."""
    return mask_of(i for i, e in enumerate(exp) if e)


@memo
def min_primes_monomial(r: CommMonomialRing) -> tuple[int, ...]:
    """Minimal variable sets hitting every generator support (vertex covers).

    Brute force over all subsets, smallest first, so a cover is minimal when
    it holds no cover found before it; make_monomial_ring caps the variables.
    """
    supports = [support(g) for g in r.gens]
    if not all(supports):
        raise RingError("a constant generator makes the ideal improper")
    covers = []
    for comb in subsets(range(r.nvars)):
        c = mask_of(comb)
        if all(c & s for s in supports) and not any(k & c == k for k in covers):
            covers.append(c)
    return tuple(covers)


def is_squarefree(r: CommMonomialRing) -> bool:
    return all(all(e <= 1 for e in g) for g in r.gens)


def regular_variables(r: CommMonomialRing) -> int:
    """Variables lying in no minimal cover; exactly the regular ones when the
    ideal is squarefree (radical)."""
    return (1 << r.nvars) - 1 & ~mask_of(v for c in min_primes_monomial(r) for v in bits(c))


def saturate_monomial(r: CommMonomialRing, vmask: int) -> CommMonomialRing:
    """Strip the variables of vmask from every generator and re-minimize.

    For monomial ideals this is exactly the saturation by the product of the
    variables; a generator supported inside the set collapses to a constant,
    which means the localized ring would be zero.
    """
    stripped = []
    for g in r.gens:
        if not support(g) & ~vmask:
            raise CollapsedLocalizationError(
                f"generator {render_monomial(g)} is supported inside the inverted variables"
            )
        stripped.append(tuple(0 if vmask >> i & 1 else e for i, e in enumerate(g)))
    gens = minimize_generators(stripped)
    return interned(("mono", r.nvars, gens),
                    lambda: CommMonomialRing(r.nvars, gens, r.degree_bound))


@memo
def _saturation_boost(r: CommMonomialRing, vmask: int) -> tuple[int, ...]:
    """The exponents of (prod of the variables of vmask)^k, with k one more
    than the largest exponent of a generator."""
    k = max((max(g) for g in r.gens), default=0) + 1
    return tuple(k if vmask >> i & 1 else 0 for i in range(r.nvars))


def saturation_membership_oracle(r: CommMonomialRing, vmask: int, exp: tuple[int, ...]) -> bool:
    """m lies in the saturation iff m * (prod of variables)^k lies in I for
    some k; bounded brute force, exact for monomial ideals at these degrees."""
    boosted = tuple(map(operator.add, exp, _saturation_boost(r, vmask)))
    return monomial_in_ideal(boosted, r.gens)


def exponent_vectors(total: int, parts: int):
    """All exponent vectors of `parts` entries summing to total, lexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in exponent_vectors(total - first, parts - 1):
            yield (first,) + rest


def monomials_up_to(nvars: int, degree: int):
    """All exponent vectors of total degree <= degree, by degree."""
    for total in range(degree + 1):
        yield from exponent_vectors(total, nvars)


def _scan_monomials(r: CommMonomialRing) -> tuple[tuple[int, ...], ...]:
    """The monomials every localization of r checks membership on; within
    an interning block, built once for all rings of r's variable count and
    degree bound."""
    return interned(("scan", r.nvars, r.degree_bound),
                    lambda: tuple(monomials_up_to(r.nvars, r.degree_bound)))


def _min_covers_avoiding(r: CommMonomialRing, vmask: int) -> list[int]:
    """Minimal variable sets that avoid vmask and meet every support of the
    generators of r: the minimal primes of the localization at vmask.

    Built one generator at a time (Berge's transversal recursion), so it
    shares no code path with the subset sweep of min_primes_monomial.
    """
    covers = {0}
    for g in r.gens:
        s = support(g)
        grown = set()
        for c in covers:
            if c & s:
                grown.add(c)
            else:
                grown.update(c | 1 << v for v in bits(s & ~vmask))
        covers = {c for c in grown if not any(k != c and k & c == k for k in grown)}
    return sorted(covers, key=lambda c: (c.bit_count(), bits(c)))


@memo
def localize_monomial(r: CommMonomialRing, vmask: int) -> tuple[str, str] | None:
    """Invert the variables of vmask: the first broken (clause, detail), or None.

    The vanishing ideal is the saturation.  The minimal primes over it must
    be the minimal covers avoiding the variables, which are the minimal
    primes of the localization, and its members must be the monomials the
    bounded oracle puts in it.
    """
    where = f"V={[v + 1 for v in bits(vmask)]}"
    sat = saturate_monomial(r, vmask)
    if set(min_primes_monomial(sat)) != set(_min_covers_avoiding(r, vmask)):
        return "minimal primes over the saturation biject", where
    for exp in _scan_monomials(r):
        if monomial_in_ideal(exp, sat.gens) != saturation_membership_oracle(r, vmask, exp):
            return "saturation membership", f"{where}: mismatch at {render_monomial(exp)}"
    return None


def all_squarefree_ideals(nvars: int):
    """Every squarefree monomial ideal: antichains of nonempty variable sets."""
    faces = range(1, 1 << nvars)
    out = []
    for code in range(1 << len(faces)):
        chosen = [s for i, s in enumerate(faces) if code >> i & 1]
        if not any(a != b and a & b == a for a in chosen for b in chosen):
            out.append(tuple(sorted(tuple(s >> i & 1 for i in range(nvars)) for s in chosen)))
    return sorted(out)


# ---------------------------------------------------------------------------
# the noncommutative pairing algebra

@dataclass(frozen=True)
class AnAlgebra:
    """Free letters x_1..x_{pairs+2} against central z_1..z_pairs with
    x_i z_i = 0 for the paired indices."""

    pairs: int
    degree_bound: int
    letters: int
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"AnAlgebra(pairs={self.pairs}, letters={self.letters}, degree<={self.degree_bound})"


def _z_mask(zexp: tuple[int, ...]) -> int:
    return mask_of(i + 1 for i, e in enumerate(zexp) if e)


class NCMonomial:
    """A normal form: a word over the x letters (1-based, order matters) and
    an exponent vector over the z's (z_{i+1} has exponent zexp[i]).

    wmask has bit i for each x_i in the word and zmask bit i for each z_i of
    positive exponent, so a paired letter meets its z exactly when
    wmask & zmask.  Both masks are computed once; a product passes its own.
    """

    __slots__ = ("word", "zexp", "is_zero", "wmask", "zmask")

    def __init__(self, word: tuple[int, ...], zexp: tuple[int, ...], is_zero: bool = False,
                 wmask: int | None = None, zmask: int | None = None):
        self.word = word
        self.zexp = zexp
        self.is_zero = is_zero
        self.wmask = mask_of(word) if wmask is None else wmask
        self.zmask = _z_mask(zexp) if zmask is None else zmask

    def degree(self) -> int:
        return len(self.word) + sum(self.zexp)

    def __eq__(self, other):
        if not isinstance(other, NCMonomial):
            return NotImplemented
        return (self.word == other.word and self.zexp == other.zexp
                and self.is_zero == other.is_zero)

    def __hash__(self):
        return hash((self.word, self.zexp, self.is_zero))

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = [f"x{i}" for i in self.word]
        parts += [f"z{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(self.zexp) if e]
        return "*".join(parts) if parts else "1"


def an_monomial_count(n: int, d: int) -> int:
    """The number of nonzero normal forms of total degree <= d, in closed form.

    A z part of degree e > 0 with support size k is a composition of e into k
    positive parts on one of C(n, k) supports; the word of length w avoids its
    k paired letters; e = 0 leaves the empty z part and every word.
    """
    letters = n + SPARE_LETTERS
    count = 0
    for total in range(d + 1):
        for w in range(total + 1):
            e = total - w
            if e == 0:
                count += letters ** w
                continue
            count += sum(math.comb(n, k) * math.comb(e - 1, k - 1) * (letters - k) ** w
                          for k in range(1, n + 1))
    return count


def an_build(n: int, d: int) -> AnAlgebra:
    if n < 0 or d < 1:
        raise RingError(f"the pairing algebra needs n >= 0 and degree >= 1, got n={n}, degree={d}")
    if n > 4:
        raise SizeLimitError("the pairing algebra is built for n <= 4")
    if d > 8:
        raise SizeLimitError("degree bound is capped at 8")
    count = an_monomial_count(n, d)
    if count > MAX_AN_MONOMIALS:
        raise SizeLimitError(f"an(n={n}) has {count} monomials of degree <= {d}"
                             f" > {MAX_AN_MONOMIALS}")
    return AnAlgebra(n, d, n + SPARE_LETTERS)


@memo
def an_zero(a: AnAlgebra) -> NCMonomial:
    return NCMonomial((), (0,) * a.pairs, True)


def an_x(a: AnAlgebra, i: int) -> NCMonomial:
    if not 1 <= i <= a.letters:
        raise RingError(f"x index {i} out of range")
    return NCMonomial((i,), (0,) * a.pairs)


def an_z(a: AnAlgebra, i: int) -> NCMonomial:
    if not 1 <= i <= a.pairs:
        raise RingError(f"z index {i} out of range")
    return NCMonomial((), tuple(1 if j == i - 1 else 0 for j in range(a.pairs)))


def an_multiply(a: AnAlgebra, m1: NCMonomial, m2: NCMonomial) -> NCMonomial:
    """Concatenate words, add exponents; zero when a paired x meets its z.
    Exact at every degree: the degree bound limits the scans, not products."""
    if m1.is_zero or m2.is_zero:
        return an_zero(a)
    wmask = m1.wmask | m2.wmask
    zmask = m1.zmask | m2.zmask
    if wmask & zmask:
        return an_zero(a)
    # a factor without z's leaves the other's exponent vector as it is
    if not m1.zmask:
        zexp = m2.zexp
    elif not m2.zmask:
        zexp = m1.zexp
    else:
        zexp = tuple(map(operator.add, m1.zexp, m2.zexp))
    return NCMonomial(m1.word + m2.word, zexp, False, wmask, zmask)


def _paired(a: AnAlgebra) -> int:
    """The mask of the paired indices 1..pairs."""
    return (1 << a.pairs + 1) - 2


@dataclass(frozen=True)
class AnPrime:
    """The prime generated by x_i for paired i in I and z_j for j outside I,
    with I and its complement as the masks imask and cmask."""

    imask: int
    cmask: int

    def contains(self, m: NCMonomial) -> bool:
        return m.is_zero or bool(m.wmask & self.imask or m.zmask & self.cmask)

    def __repr__(self):
        gens = [f"x{i}" for i in bits(self.imask)] + [f"z{j}" for j in bits(self.cmask)]
        return "(" + ",".join(gens) + ")" if gens else "(0)"


def an_min_primes(a: AnAlgebra) -> list[AnPrime]:
    full = _paired(a)
    return [AnPrime(i, full & ~i) for i in map(mask_of, subsets(range(1, a.pairs + 1)))]


@memo
def _an_generators(a: AnAlgebra) -> list[tuple[NCMonomial, str]]:
    gens = [(an_x(a, i), f"x{i}") for i in range(1, a.letters + 1)]
    return gens + [(an_z(a, i), f"z{i}") for i in range(1, a.pairs + 1)]


def noncommuting_generator(a: AnAlgebra, m: NCMonomial) -> str | None:
    """The first algebra generator that does not commute with m, or None."""
    for g, gname in _an_generators(a):
        if an_multiply(a, m, g) != an_multiply(a, g, m):
            return gname
    return None


@memo
def _an_class_representatives(a: AnAlgebra) -> list[NCMonomial]:
    """The first normal form of each (degree, wmask, zmask) class, in the
    enumeration order of the normal forms (by degree, then word length, then
    word, then z exponents): every scan of the pairing algebra runs over these.

    Whether a product is zero or lies in a p_I depends only on the factors'
    masks, and so does commutation: m commutes with every z_i, and with x_j
    when both products are zero or wmask is within {j} (a word commutes with
    a letter only when it is a power of it: Lyndon and Schutzenberger, 1962).
    So every clause answers alike on a class, and its first member is the
    first to fail.  The degree is in the key because a product's degree is
    the sum of its factors' degrees.

    Each first member is built directly.  A class of degree t with letters W
    and no z's holds words of length t only, and the first is min(W) repeated
    t - |W| + 1 times followed by the rest of W ascending.  With z's in Z the
    shortest word comes first: sorted(W), then the least exponent vector on Z
    of degree t - |W|, which is 1 on every z but the last of Z."""
    d, zero = a.degree_bound, (0,) * a.pairs
    heads = []
    for word in subsets(range(1, a.letters + 1)):
        wmask = mask_of(word)
        # the empty word with no z's is the one form of degree 0
        heads += [NCMonomial(word[:1] * (t - len(word)) + word, zero, False, wmask, 0)
                  for t in range(len(word), d + 1 if word else 1)]
        for zs in subsets(bits(_paired(a) & ~wmask), 1):
            zmask, last = mask_of(zs), zs[-1] - 1
            ones = tuple(int(zmask >> i & 1) for i in range(1, a.pairs + 1))
            heads += [NCMonomial(word, ones[:last] + (e,) + ones[last + 1:], False, wmask, zmask)
                      for e in range(1, d - len(word) - len(zs) + 2)]
    heads.sort(key=lambda m: (m.degree(), len(m.word), m.word, m.zexp))
    return heads


def _zero_divisors(a: AnAlgebra, primes: list[AnPrime]) -> list[str | None]:
    """For each prime p, the first product of two monomials outside p that
    lands in p within the degree bound, or None when the quotient by p is a
    domain there.

    One pass over the degree-feasible pairs of class heads, in the order a
    scan of one prime takes them (degree buckets, then heads), forms each
    product once and tests it against every prime that both factors lie
    outside and that has no witness yet.  Each head carries the mask of the
    primes it lies outside, bit k for primes[k], so every prime's witness is
    the first failing pair of its own scan."""
    multiply, contains = an_multiply, [p.contains for p in primes]
    buckets: dict[int, list[tuple[NCMonomial, int]]] = {}
    for m in _an_class_representatives(a):
        outside = mask_of(k for k, inside in enumerate(contains) if not inside(m))
        if outside:
            buckets.setdefault(m.degree(), []).append((m, outside))
    witnesses: list[str | None] = [None] * len(primes)
    pending = (1 << len(primes)) - 1
    for d1, left in buckets.items():
        for d2, right in buckets.items():
            if d1 + d2 > a.degree_bound:
                continue
            for m1, out1 in left:
                for m2, out2 in right:
                    hit = out1 & out2 & pending
                    if not hit:
                        continue
                    prod = multiply(a, m1, m2)
                    for k in bits(hit):
                        if prod.is_zero or contains[k](prod):
                            witnesses[k] = f"{m1} * {m2}"
                            pending &= ~(1 << k)
                    if not pending:
                        return witnesses
    return witnesses


def an_verify(a: AnAlgebra) -> tuple[str, str] | None:
    """Degree-bounded verification of the pairing-algebra picture: the first
    broken (clause, detail), or None.

    Checks, all at total degree <= the bound: every p_I has a domain quotient;
    the p_I are pairwise incomparable and intersect to zero; the central
    monomials are exactly the z monomials; p_I meets the centre in the z's
    indexed outside I; and the minimal-prime restriction map is defined
    exactly at I = full set.  The domain quotients come from one scan that
    forms each product once for all the p_I, and the first p_I in
    an_min_primes order with a zero divisor is reported, with the witness a
    scan of that p_I alone would find.
    """
    d = a.degree_bound
    primes = an_min_primes(a)
    monos = _an_class_representatives(a)

    for p, witness in zip(primes, _zero_divisors(a, primes)):
        if witness:
            return "domain quotients", f"quotient by {p} has zero divisors: {witness}"

    for p in primes:
        for q in primes:
            if p.imask != q.imask and not any(p.contains(m) and not q.contains(m) for m in monos):
                return "incomparable primes", f"{p} is contained in {q} at degree <= {d}"

    for m in monos:
        if m.degree() > 0 and all(p.contains(m) for p in primes):
            return "zero intersection", f"{m} lies in every minimal prime"

    for m in monos:
        g = noncommuting_generator(a, m)
        if bool(m.word) == (g is None):
            return "centre is the z-polynomials", (
                f"{m} does not commute with {g}" if g else f"{m} is central")

    for p in primes:
        for m in monos:
            if not m.word and p.contains(m) != bool(m.zmask & p.cmask):
                return "prime meets the centre", (
                    f"{p} meets the centre off (z_j : j in {list(bits(p.cmask))}) at {m}")

    zmonos = [m for m in monos if not m.word and m.degree() > 0]
    for m1 in zmonos:
        for m2 in zmonos:
            if m1.degree() + m2.degree() <= d and an_multiply(a, m1, m2).is_zero:
                return "centre is a domain", f"{m1} * {m2} = 0"

    # rho(p) = p meet Z is minimal in the domain Z iff it is zero
    full = _paired(a)
    defined = [p.imask for p in primes if not any(p.contains(m) for m in zmonos)]
    if defined != [full]:
        return "restriction map", (
            f"defined at {[list(bits(i)) for i in defined]}, not only at {list(bits(full))}")

    if a.pairs >= 1:
        z1, x1 = an_z(a, 1), an_x(a, 1)
        z1_regular = all(
            not an_multiply(a, z1, m).is_zero for m in zmonos if m.degree() + 1 <= d
        )
        if not (z1_regular and an_multiply(a, z1, x1).is_zero):
            return "criterion witness", "missing the central-regular zero-divisor witness"
    return None


def an_localize_normal(a: AnAlgebra, variables) -> tuple[str, str] | None:
    """Invert the central set generated by z_v, v in V: the first broken
    (clause, detail), or None.

    The vanishing ideal is generated by the paired x_v; the minimal primes
    over it are the p_I with I containing V, of which there are 2^(n-|V|),
    and they biject with the minimal primes of the localized model (the same
    algebra on the surviving pairs, with the inverted z's now units).
    """
    variables = tuple(variables)
    if not variables or not all(1 <= v <= a.pairs for v in variables):
        raise RingError("invert a non-empty subset of the paired indices")
    return _an_localize_verdict(a, mask_of(variables))


@memo
def _an_localize_verdict(a: AnAlgebra, vmask: int) -> tuple[str, str] | None:
    # elements with s*m*t = 0 for z-power products s,t are exactly those whose
    # word meets V (choose s,t supported on all of V); products are exact
    # above the degree bound, and whether s*m*t is zero depends only on m's
    # class, so scanning one representative per class is sound
    V = bits(vmask)
    zfull = NCMonomial((), tuple(vmask >> i & 1 for i in range(1, a.pairs + 1)))
    for m in _an_class_representatives(a):
        killed = an_multiply(a, an_multiply(a, zfull, m), zfull).is_zero
        if killed != bool(m.wmask & vmask):
            return "vanishing ideal", f"V={list(V)}: mismatch at {m}"

    over = [p for p in an_min_primes(a) if all(p.contains(an_x(a, v)) for v in V)]
    expected = 1 << (a.pairs - len(V))
    if len(over) != expected:
        return "primes over the vanishing ideal", (
            f"V={list(V)}: expected {expected}, got {len(over)}")

    # the localized image of a prime is generated by the surviving x_i and z_j
    # it contains, relabeled; it is the prime p_I of the localized model when
    # its z's are exactly those outside I
    survivors = bits(_paired(a) & ~vmask)
    localized = AnAlgebra(len(survivors), a.degree_bound, len(survivors) + SPARE_LETTERS)

    def kept(gen, p: AnPrime) -> int:
        return mask_of(new + 1 for new, old in enumerate(survivors) if p.contains(gen(a, old)))

    images = {(kept(an_x, p), kept(an_z, p)) for p in over}
    targets = {(q.imask, q.cmask) for q in an_min_primes(localized)}
    if len(images) != len(over) or images != targets:
        return "prime bijection", f"V={list(V)}: prime map to the localized model"
    return None
