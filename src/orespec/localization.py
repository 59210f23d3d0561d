"""Multiplicative sets, Ore/denominator classification, and localizations.

On a finite ring every left denominator set S localizes to the factor ring by
its left vanishing ideal ass_l(S) = {r : sr = 0 for some s in S}: the images
of S are regular in the factor, regular elements of a finite ring are units,
and inverting units changes nothing.  That identification is not assumed
silently; every localization re-verifies that sigma(S) consists of units and
that ker(sigma) equals the vanishing ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finring import (
    EngineInvariantError,
    Mask,
    RingError,
    RingHom,
    RingTable,
    bits,
    canonical,
    inverse_table,
    is_two_sided_ideal_mask,
    make_quotient,
    memo,
    normal_mask,
    products,
    regular_mask,
    units_mask,
)
from .ideals import (
    LEFT,
    ideal_closure_mask,
    ideal_sum_mask,
    min_prime_masks,
    prime_flags,
    prime_masks,
)

EXHAUSTIVE_MULT_ORDER = 12


class ZeroAbsorbedError(RingError):
    """The multiplicative closure of the generators reached zero."""

    def __init__(self, ring, witness):
        self.witness = witness  # (s, t) with s*t == 0
        super().__init__(
            f"closure hits zero via {ring.name(witness[0])}*{ring.name(witness[1])}"
        )


@dataclass(frozen=True)
class MultSet:
    """A multiplicative subset: contains 1, omits 0, closed under products."""

    ring: RingTable
    mask: Mask

    def members(self) -> list[int]:
        return list(bits(self.mask))

    def __repr__(self):
        return f"MultSet({self.ring.label}, {{{', '.join(self.ring.name(i) for i in self.members())}}})"


@dataclass(frozen=True)
class OreClass:
    """Classification flags and vanishing sets of a multiplicative set."""

    left_ore: bool
    right_ore: bool
    left_den: bool
    right_den: bool
    ass_l_mask: Mask
    ass_r_mask: Mask
    violation: tuple | None = None  # first (reason, data) that broke a flag


@dataclass(frozen=True, slots=True)
class LocalizedLeftIdeal:
    mask: Mask  # left ideal of the target generated by the image of the source
    two_sided: bool


def closure_with_witness(r: RingTable, gens: Mask, closed: Mask = 0):
    """Multiplicative closure of gens plus 1, and the first pair (a, b) of its
    members found with a*b = 0 (or None when the closure avoids zero); with
    a witness, the mask is the part of the closure found so far, zero
    included.

    Semi-naive rounds: each round multiplies only the members the round
    before found, by every member on either side, so each product is formed
    once, and products with 1 are not formed.  `closed`, a part of gens
    already closed under products (a closure being extended), counts as
    found before the first round."""
    zero, mul = r.zero, r.mul
    mask = gens | 1 << r.one
    if mask >> zero & 1:
        return mask, (zero, zero)
    unit = 1 << r.one
    old = bits(closed & ~unit)
    new = bits(mask & ~closed & ~unit)
    members = old + new
    while new:
        found = mask
        for a in new:
            row = mul[a]
            for b in members:  # a * every member, the new ones included
                p = row[b]
                if p == zero:
                    return found | 1 << zero, (a, b)
                found |= 1 << p
            for b in old:  # every older member * a
                p = mul[b][a]
                if p == zero:
                    return found | 1 << zero, (b, a)
                found |= 1 << p
        new = bits(found & ~mask)
        old = members
        members += new
        mask = found
    return mask, None


def close_multiplicative(r: RingTable, gmask: Mask) -> MultSet:
    """Multiplicative closure of gmask plus 1; error if zero is absorbed."""
    mask, witness = closure_with_witness(r, gmask)
    if witness is not None:
        raise ZeroAbsorbedError(r, witness)
    return MultSet(r, mask)


@memo
def mult_set_masks(r: RingTable, exhaustive_order: int = EXHAUSTIVE_MULT_ORDER) -> tuple[Mask, ...]:
    """All multiplicative submonoids (without 0) up to the exhaustive order;
    above it, only the closures of at most two nonzero elements."""
    nonzero = r.full_mask() & ~(1 << r.zero)
    return canonical(submonoid_levels(r, nonzero, None if r.order <= exhaustive_order else 2))


@memo
def submonoid_levels(r: RingTable, pool: Mask, depth: int | None) -> dict[Mask, int]:
    """The zero-free multiplicative closures of subsets of the pool mask,
    each with the level of the search that first reached it, by closure
    extension: breadth-first from the closure of {1}, each closure found is
    extended by each pool element outside it and closed again, at most
    |pool| closures per closure found.  Breadth-first order reaches each
    closure first at its least number of generators, which is its level,
    and closure(closure(X) + y) = closure(X + y), so depth=d gives the
    closures of at most d pool elements; depth=None gives all of them."""
    start, witness = closure_with_witness(r, 0)
    found = {} if witness else {start: 0}
    frontier = list(found)
    level = 0
    while frontier and (depth is None or level < depth):
        level += 1
        nxt = []
        for mask in frontier:
            for x in bits(pool & ~mask):
                closed, witness = closure_with_witness(r, mask | 1 << x, mask)
                if witness is None and closed not in found:
                    found[closed] = level
                    nxt.append(closed)
        frontier = nxt
    return found


def vanishing_masks(r: RingTable, smask: Mask) -> tuple[Mask, Mask]:
    """(ass_l, ass_r): zero together with the x that some s in S kills from the
    left (sx = 0), respectively from the right (xs = 0)."""
    _, _, kills, killed_by = products(r)
    ass_l = ass_r = 1 << r.zero
    for s in bits(smask):
        ass_l |= kills[s]
        ass_r |= killed_by[s]
    return ass_l, ass_r


@memo
def _product_slots(r: RingTable) -> tuple:
    """The maps x -> xs and x -> sx of every element s, each packed into one
    int: slot x, the n + 1 bits from bit (n + 1)x up, holds the bit of the
    product.  Then the slot constants `_meets` reads: a 1 at the foot of
    every slot, n ones at the foot, and the top bit of every slot."""
    n, mul = r.order, r.mul
    width = n + 1
    right = tuple(sum(1 << (width * x + mul[x][s]) for x in range(n)) for s in range(n))
    left = tuple(sum(1 << (width * x + mul[s][x]) for x in range(n)) for s in range(n))
    ones = sum(1 << width * x for x in range(n))
    return right, left, ones, ones * ((1 << n) - 1), ones << n


@memo
def set_rows(r: RingTable, smask: Mask) -> tuple[int, int]:
    """xS and Sx for every element x, packed into two ints by slot as in
    `_product_slots`: the union over s in S of the maps x -> xs, and of the
    maps x -> sx."""
    right, left = _product_slots(r)[:2]
    xs = sx = 0
    for s in bits(smask):
        xs |= right[s]
        sx |= left[s]
    return xs, sx


def _meets(slots: tuple, rows: int, target: Mask) -> int:
    """The slots of packed rows that meet target, marked by their top bit:
    a slot's part in target is at most n ones, and adding n ones to it
    carries into the top bit exactly when it is nonzero.  slots is
    `_product_slots` of the ring."""
    ones, low, high = slots[2:]
    return ((rows & target * ones) + low) & high


def meeting(r: RingTable, smask: Mask, target: Mask, left: bool) -> Mask:
    """The x whose Sx (left) or xS (right) meets target, read from the set's
    packed rows."""
    xs, sx = set_rows(r, smask)
    marks = _meets(_product_slots(r), sx if left else xs, target)
    width, found = r.order + 1, 0
    while marks:  # one round per marked slot
        top = marks & -marks
        found |= 1 << (top.bit_length() - 1) // width
        marks ^= top
    return found


def _ore_witness(r: RingTable, smask: Mask, left: bool) -> tuple[int, int] | None:
    """The first (x, s) in x-major order where Sx misses Rs (left) or xS
    misses sR (right), or None."""
    ones, low, high = _product_slots(r)[2:]
    xs, sx = set_rows(r, smask)
    rows = sx if left else xs
    multiples = products(r)[1 if left else 0]
    met = high  # the top bits of the slots x that meet every target as in _meets
    for s in bits(smask):
        met &= (rows & multiples[s] * ones) + low
    if met == high:
        return None
    missed = high & ~met
    top = missed & -missed  # the top bit of the least slot x that some s misses
    s = next(s for s in bits(smask) if not (rows & multiples[s] * ones) + low & top)
    return (top.bit_length() - 1) // (r.order + 1), s


@memo
def ore_flags(r: RingTable, smask: Mask) -> OreClass:
    """The Ore and denominator flags of the set, its vanishing sets, and the
    first violation found.  An Ore set is a denominator set on its side when
    ass_r <= ass_l (left), respectively ass_l <= ass_r (right)."""
    ass_l, ass_r = vanishing_masks(r, smask)
    left_miss = _ore_witness(r, smask, left=True)
    right_miss = _ore_witness(r, smask, left=False)
    left_ore, right_ore = left_miss is None, right_miss is None
    left_den = left_ore and not ass_r & ~ass_l
    right_den = right_ore and not ass_l & ~ass_r
    violation = (
        ("left-ore", left_miss) if not left_ore else
        ("right-ore", right_miss) if not right_ore else
        ("left-denominator", bits(ass_r & ~ass_l)[0]) if not left_den else
        ("right-denominator", bits(ass_l & ~ass_r)[0]) if not right_den else None
    )
    if left_ore and not is_two_sided_ideal_mask(r, ass_l):
        raise EngineInvariantError("ass_l of a left Ore set is not a two-sided ideal")
    if right_ore and not is_two_sided_ideal_mask(r, ass_r):
        raise EngineInvariantError("ass_r of a right Ore set is not a two-sided ideal")
    return OreClass(left_ore, right_ore, left_den, right_den, ass_l, ass_r, violation)


def classify_set(s: MultSet) -> OreClass:
    return ore_flags(s.ring, s.mask)


def regular_den(r: RingTable, cls: OreClass) -> bool:
    """The classified set lies in Den_l(R, 0): a left denominator set whose
    vanishing ideal is zero, so a set of regular elements."""
    return cls.left_den and cls.ass_l_mask == 1 << r.zero


@memo
def left_denominator_masks(r: RingTable, exhaustive_order: int = EXHAUSTIVE_MULT_ORDER) -> tuple[Mask, ...]:
    return tuple(
        m for m in mult_set_masks(r, exhaustive_order) if ore_flags(r, m).left_den
    )


@memo
def left_denominator_sets(r: RingTable, exhaustive_order: int = EXHAUSTIVE_MULT_ORDER) -> tuple[MultSet, ...]:
    return tuple(MultSet(r, m) for m in left_denominator_masks(r, exhaustive_order))


def _factor_localization(r: RingTable, smask: Mask, ass: Mask) -> RingHom:
    """make_quotient's map sigma: R -> R/ass as the localization map, after
    checking that ker(sigma) is ass and every sigma(s) a unit of the factor."""
    target, sigma = make_quotient(r, ass)
    if sigma.kernel_mask() != ass:
        raise EngineInvariantError("localization kernel differs from the vanishing ideal")
    if sigma.push_mask(smask) & ~units_mask(target):
        raise EngineInvariantError("an image of S is not a unit of the localization")
    return sigma


@memo
def _localize_mask(r: RingTable, smask: Mask) -> RingHom:
    cls = ore_flags(r, smask)
    if not cls.left_den:
        reason, witness = cls.violation or ("left-denominator", None)
        raise RingError(f"{reason} fails at {witness}")
    return _factor_localization(r, smask, cls.ass_l_mask)


def localize(r: RingTable, s: MultSet) -> RingHom:
    """The localization map R -> S^-1 R = R / ass_l(S) at a left denominator set."""
    return _localize_mask(r, s.mask)


def _right_absorbed(r: RingTable, mask: Mask) -> bool:
    right = products(r)[0]
    return not any(right[a] & ~mask for a in bits(mask))


@memo
def localize_left_ideal(sigma: RingHom, source_mask: Mask) -> LocalizedLeftIdeal:
    """The left ideal of the target of the localization map sigma generated
    by the image of a left or two-sided ideal of the source, and whether it
    is two-sided.  Memoised on sigma: every set with the same vanishing
    ideal shares it, since make_quotient is memoised."""
    t = sigma.target
    mask = ideal_closure_mask(t, sigma.push_mask(source_mask), LEFT)
    if source_mask & ~sigma.preimage_mask(mask):
        raise EngineInvariantError("localized ideal does not contain the source image")
    return LocalizedLeftIdeal(mask, _right_absorbed(t, mask))


# ---------------------------------------------------------------------------
# the five-way localized-ideal criterion

@memo
def _a11_reads(sigma: RingHom, smask: Mask) -> tuple:
    """What check_A11_equivalence reads of a set S, once per (sigma, S): the
    inverses of the distinct images sigma(s), the source's product slots,
    S's packed rows xS and Sx, and ker sigma."""
    r = sigma.source
    inv = inverse_table(sigma.target)
    unit_inverses = tuple(inv[u] for u in bits(sigma.push_mask(smask)))
    return (unit_inverses, _product_slots(r), *set_rows(r, smask), sigma.kernel_mask())


def _absorbs_unit_inverses(sigma: RingHom, unit_inverses, ideal_mask: Mask, bmask: Mask) -> bool:
    """sigma(x) * u lies in the target's ideal_mask for every x in b and every
    u among unit_inverses, the inverses sigma(s)^{-1} of a set; the product
    depends on x only through its image, so it runs over the distinct
    images."""
    mul = sigma.target.mul
    for y in bits(sigma.push_mask(bmask)):
        row = mul[y]
        for u in unit_inverses:
            if not ideal_mask >> row[u] & 1:
                return False
    return True


def _pushes_into_pulls(slots: tuple, xs: int, sx: int, target_mask: Mask) -> bool:
    """{x : xs in target for some s in S} lies in {x : sx in target for some s}:
    every slot of xS that meets the target has its slot of Sx meet it too.
    slots is `_product_slots` of the ring, and xs and sx are S's `set_rows`."""
    return not _meets(slots, xs, target_mask) & ~_meets(slots, sx, target_mask)


@memo
def _sum_conditions(r: RingTable, smask: Mask, ab: Mask) -> tuple[bool, bool]:
    """Conditions (4) and (5) of check_A11_equivalence at ab = ass + b.  They
    read S and ab alone, so the ideals b with one sum share them; both hold
    when ab is the whole ring."""
    if ab == r.full_mask():
        return True, True
    c4 = _pushes_into_pulls(_product_slots(r), *set_rows(r, smask), ab)
    q, hom = make_quotient(r, ab)
    tor_l, tor_r = vanishing_masks(q, hom.push_mask(smask))
    return c4, tor_r & ~tor_l == 0


def check_A11_equivalence(sigma: RingHom, smask: Mask, bmask: Mask) -> tuple[str, str] | None:
    """Five independent evaluations of 'the localized left ideal is two-sided':
    ("five-way agreement", witness) when they disagree, otherwise None.

    (1) direct right-absorption in the target;
    (2) b * sigma(s)^{-1} lands in the localized ideal for every s;
    (3) rs in b forces s'r in b for some s';
    (4) the same with the vanishing ideal added to b;
    (5) right S-torsion of R/(ass + b) is contained in its left S-torsion.

    The whole ring is accepted by convention (all conditions true).  When b is
    a two-sided ideal, as every b the checks pass is, (2) holds by
    construction: sigma(b) is then a two-sided ideal of the target, so
    sigma(b) * sigma(s)^{-1} lies in sigma(b), inside the localized ideal, and
    (2) cannot disagree with the others.  It does independent work only on a
    one-sided b.
    """
    r = sigma.source
    if bmask == r.full_mask():
        return None

    unit_inverses, slots, xs, sx, ass = _a11_reads(sigma, smask)
    local = localize_left_ideal(sigma, bmask)
    c1 = local.two_sided
    c2 = _absorbs_unit_inverses(sigma, unit_inverses, local.mask, bmask)
    c3 = _pushes_into_pulls(slots, xs, sx, bmask)
    c4, c5 = _sum_conditions(r, smask, ideal_sum_mask(r, ass, bmask))

    conds = (c1, c2, c3, c4, c5)
    if len(set(conds)) == 1:
        return None
    return ("five-way agreement",
            f"conditions disagree: {conds} for S={list(bits(smask))}, b={list(bits(bmask))}")


# ---------------------------------------------------------------------------
# prime structure under localization

def respects_prime_structure(sigma: RingHom) -> bool:
    return all(localize_left_ideal(sigma, p).two_sided for p in prime_masks(sigma.source))


def min_RS(r: RingTable, s: MultSet) -> list[Mask]:
    """Minimal primes of the source that are disjoint from the set."""
    return [m for m in min_prime_masks(r) if m & s.mask == 0]


def min_RS_id(sigma: RingHom, s: MultSet) -> list[Mask]:
    """Minimal primes whose localized left ideal spans a proper two-sided ideal."""
    r, t = sigma.source, sigma.target
    out = [
        m for m in min_prime_masks(r)
        if ideal_closure_mask(t, localize_left_ideal(sigma, m).mask) != t.full_mask()
    ]
    if set(min_RS(r, s)) - set(out):
        raise EngineInvariantError("min(R,S) escapes min(R,S,id)")
    return out


# ---------------------------------------------------------------------------
# localization at normal-element sets

@memo
def localize_normal(r: RingTable, gmask: Mask) -> RingHom:
    """The localization map at the multiplicative set generated by gmask, a
    mask of normal elements.

    The vanishing ideal is {x : s x t = 0 for some s,t in S}; the target is
    the factor ring by it, where every image of S is again a unit.
    """
    nm = normal_mask(r)
    for g in bits(gmask):
        if not nm >> g & 1:
            raise RingError(f"generator {r.name(g)} is not normal")
    s = close_multiplicative(r, gmask)
    # s x t = 0 for some s, t in S exactly when Sx meets ass_r(S)
    ass = meeting(r, s.mask, vanishing_masks(r, s.mask)[1], left=True)
    if not is_two_sided_ideal_mask(r, ass):
        raise EngineInvariantError("normal-set vanishing ideal is not two-sided")
    if ass == r.full_mask():
        raise ZeroAbsorbedError(r, (r.one, r.one))
    return _factor_localization(r, s.mask, ass)


def normal_closure(s: MultSet):
    """closure_with_witness of the normal members of s."""
    return closure_with_witness(s.ring, s.mask & normal_mask(s.ring))


def has_normal_multiples(s: MultSet) -> bool:
    """Every member x of s has a normal left multiple t*x with t in s."""
    return not s.mask & ~meeting(s.ring, s.mask, normal_mask(s.ring), left=True)


# ---------------------------------------------------------------------------
# largest quotient sets (finite instantiation)

def largest_regular_set(r: RingTable) -> MultSet:
    """The largest regular left Ore set; on a finite ring this is the units."""
    s = MultSet(r, units_mask(r))
    cls = classify_set(s)
    if not (regular_den(r, cls) and cls.right_den):
        raise EngineInvariantError("unit group fails the denominator re-check")
    return s


@memo
def ass_l_realizable_masks(r: RingTable, exhaustive_order: int = EXHAUSTIVE_MULT_ORDER) -> tuple[Mask, ...]:
    """All ideals arising as ass_l of an enumerated left denominator set."""
    return tuple(sorted({
        ore_flags(r, m).ass_l_mask for m in left_denominator_masks(r, exhaustive_order)
    }))


def _unit_preimage(r: RingTable, amask: Mask) -> Mask:
    """The preimage in R of the units of R/a."""
    target, hom = make_quotient(r, amask)
    return hom.preimage_mask(units_mask(target))


def largest_set_assoc(r: RingTable, amask: Mask, exhaustive_order: int = EXHAUSTIVE_MULT_ORDER) -> MultSet:
    """Largest left denominator set with vanishing ideal a: the preimage of the
    units of R/a.  Errors when a is not realizable as a vanishing ideal."""
    if amask not in ass_l_realizable_masks(r, exhaustive_order):
        raise RingError(f"ideal {list(bits(amask))} is not an attained vanishing ideal")
    s = MultSet(r, _unit_preimage(r, amask))
    cls = classify_set(s)
    if not cls.left_den or cls.ass_l_mask != amask:
        raise EngineInvariantError("unit preimage fails the denominator re-check")
    return s


def t_l(r: RingTable, pmask: Mask) -> MultSet:
    """Preimage of the units of R/p at a prime p (candidate Ore set)."""
    if not prime_flags(r, pmask).is_prime:
        raise RingError("t_l is defined at prime ideals")
    return MultSet(r, _unit_preimage(r, pmask))


# ---------------------------------------------------------------------------
# epimorphic images of denominator sets

def check_epimorphic_den_b14(sigma: RingHom, smask: Mask, bmask: Mask) -> bool:
    """Image criterion for an ideal b with ass(S) <= b < R: the image of S is
    a zero-vanishing denominator set of R/b iff it consists of regular
    elements.  True when the two sides agree.

    S misses b: sigma(S) consists of units of R/ass, and b/ass is proper."""
    q, hom = make_quotient(sigma.source, bmask)
    s_img = hom.push_mask(smask)
    cls = ore_flags(q, s_img)
    lhs = regular_den(q, cls)
    rhs = s_img & ~regular_mask(q) == 0
    return lhs == rhs


def check_epimorphic_den_c14(r: RingTable, smask: Mask, abmask: Mask) -> bool:
    """Two-step image criterion for the ideal ass(S) + b of R, given as
    abmask, proper and disjoint from S: after factoring by the image's own
    vanishing ideal, the set is a zero-vanishing denominator set iff the
    intermediate ring has no right S-torsion.  True when the two sides
    agree."""
    q, hom = make_quotient(r, abmask)
    return _two_step_criterion(q, hom.push_mask(smask))


@memo
def _two_step_criterion(q: RingTable, s_img: Mask) -> bool:
    """check_epimorphic_den_c14 on q = R/(ass + b) and the image of S, memoised
    on q: it reads nothing else of R, b or S."""
    # proper: 1 in cbar would need an image of S to vanish in q
    cbar = vanishing_masks(q, s_img)[0]
    if not is_two_sided_ideal_mask(q, cbar):
        raise EngineInvariantError("intermediate vanishing set is not an ideal")
    q2, hom2 = make_quotient(q, cbar)
    cls = ore_flags(q2, hom2.push_mask(s_img))
    lhs = regular_den(q2, cls)
    rhs = not meeting(q, s_img, cbar, left=False) & ~cbar
    return lhs == rhs
