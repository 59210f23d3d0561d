"""Ideals of a finite ring: enumeration, primality, radicals, minimal primes.

The two-sided ideal lattice is produced by closing the principal ideals under
pairwise sums (every ideal is a sum of principal ideals).  Primality uses the
elementwise criterion (aRb contained in P); the quantifier-over-ideals variant
is kept as an independent oracle for small orders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .finring import (
    EngineInvariantError,
    ImproperIdealError,
    Mask,
    RingError,
    RingTable,
    additive_span,
    bits,
    canonical,
    is_two_sided_ideal_mask,
    make_quotient,
    memo,
    products,
)

LEFT = "left"
TWO_SIDED = "two-sided"


@dataclass(frozen=True, slots=True)
class PrimeReport:
    is_prime: bool
    is_completely_prime: bool
    is_semiprime_ideal: bool


@memo
def ideal_closure_mask(r: RingTable, gens: Mask, sidedness: str = TWO_SIDED) -> Mask:
    """Least left or two-sided ideal containing gens (fixpoint closure)."""
    right, left = products(r)[:2]
    mask = gens | 1 << r.zero
    while True:
        new = additive_span(r, mask)
        if sidedness == TWO_SIDED:
            for a in bits(new):
                new |= left[a] | right[a]
        else:
            for a in bits(new):
                new |= left[a]
        if new == mask:
            return mask
        mask = new


def _closure_under(seeds, step) -> set[Mask]:
    """The least family of masks containing the seeds and closed under
    m -> step(m, seed) for every seed."""
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        m = frontier.pop()
        for f in seeds:
            p = step(m, f)
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return seen


@memo
def all_ideal_masks(r: RingTable) -> tuple[Mask, ...]:
    principal = {ideal_closure_mask(r, 1 << x) for x in r.elements()}
    seen = _closure_under(principal, lambda m, p: additive_span(r, m | p))
    return canonical(seen)


def all_ideal_masks_exhaustive(r: RingTable) -> tuple[Mask, ...]:
    """Subset-scan oracle for the ideal lattice; only sensible at tiny orders."""
    if r.order > 12:
        raise RingError("exhaustive ideal scan is limited to order <= 12")
    out = [m for m in range(1 << r.order) if is_two_sided_ideal_mask(r, m)]
    return canonical(out)


@memo
def ideal_product_mask(r: RingTable, a: Mask, b: Mask) -> Mask:
    gens = 0
    for x in bits(a):
        row = r.mul[x]
        for y in bits(b):
            gens |= 1 << row[y]
    return additive_span(r, gens)


def ideal_sum_mask(r: RingTable, a: Mask, b: Mask) -> Mask:
    return additive_span(r, a | b)


# ---------------------------------------------------------------------------
# primality

@memo
def prime_flags(r: RingTable, mask: Mask) -> PrimeReport:
    """Prime / completely prime / semiprime flags of a two-sided ideal mask, by
    the elementwise tests.  Primes and semiprime ideals are proper, so all
    three flags are false on the whole ring.

    With into[y] = {b : yb in P}, aRb lies in P exactly when b lies in every
    into[y] for y in aR, so each a outside P needs one intersection of row
    masks: P is prime when it meets no b outside P, semiprime when it misses
    a itself, and completely prime when into[a] itself meets nothing outside
    P."""
    if mask == r.full_mask():
        return PrimeReport(False, False, False)
    outside = r.full_mask() & ~mask
    inside = frozenset(bits(mask)).__contains__
    weights = [1 << b for b in r.elements()]
    into = [sum(itertools.compress(weights, map(inside, row))) for row in r.mul]
    right = products(r)[0]
    completely = prime = semi = True
    for a in bits(outside):
        if into[a] & outside:
            completely = False
        within = outside  # the b outside P with aRb in P
        for y in bits(right[a]):
            within &= into[y]
        if within:
            prime = False
            if within >> a & 1:
                semi = False
    if (completely and not prime) or (prime and not semi):
        raise EngineInvariantError("prime classification monotonicity violated")
    return PrimeReport(prime, completely, semi)


def is_prime_lattice_test(r: RingTable, pmask: Mask) -> bool:
    """Oracle: P is prime iff AB <= P forces A <= P or B <= P over the lattice."""
    if pmask == r.full_mask():
        raise ImproperIdealError("cannot classify the whole ring")
    notin = [m for m in all_ideal_masks(r) if m & ~pmask]
    for a in notin:
        for b in notin:
            if ideal_product_mask(r, a, b) & ~pmask == 0:
                return False
    return True


@memo
def prime_masks(r: RingTable) -> tuple[Mask, ...]:
    return tuple(m for m in all_ideal_masks(r) if prime_flags(r, m).is_prime)


def _over(masks, floor: Mask) -> list[Mask]:
    """The masks that contain floor."""
    return [m for m in masks if floor & ~m == 0]


def _minimal_over(masks, floor: Mask) -> list[Mask]:
    over = _over(masks, floor)
    return [m for m in over if not any(o != m and o & ~m == 0 for o in over)]


@memo
def min_prime_masks_over(r: RingTable, floor: Mask) -> tuple[Mask, ...]:
    direct = _minimal_over(prime_masks(r), floor)
    if floor != 1 << r.zero:
        # independent route through the factor ring; the two must agree
        q, hom = make_quotient(r, floor)
        via = sorted(hom.preimage_mask(m) for m in min_prime_masks_over(q, 1 << q.zero))
        if sorted(direct) != via:
            raise EngineInvariantError(
                "minimal primes over an ideal disagree with the factor-ring route"
            )
    return canonical(direct)


def min_prime_masks(r: RingTable) -> tuple[Mask, ...]:
    """min(R), the minimal primes over zero; read through the memo of
    min_prime_masks_over, so it adds no entry of its own."""
    return min_prime_masks_over(r, 1 << r.zero)


# ---------------------------------------------------------------------------
# prime radical, two ways

def strongly_nilpotent_mask(r: RingTable) -> Mask:
    """Elements all of whose a_{i+1} in a_i R a_i sequences die at zero.

    x fails exactly when some nonzero cycle is reachable from x in the graph
    x -> {x t x}; computed by a three-colour DFS with memoised reachability.
    """
    succ = []
    for x in r.elements():
        row = r.mul[x]
        succ.append(sorted({r.mul[row[t]][x] for t in r.elements()} - {r.zero}))
    WHITE, GREY, BLACK_BAD, BLACK_OK = 0, 1, 2, 3
    colour = [WHITE] * r.order

    def escapes(x: int) -> bool:
        # True when an infinite nonzero sequence starts at x
        if colour[x] == GREY:
            return True
        if colour[x] == BLACK_BAD:
            return True
        if colour[x] == BLACK_OK:
            return False
        colour[x] = GREY
        bad = any(escapes(y) for y in succ[x])
        colour[x] = BLACK_BAD if bad else BLACK_OK
        return bad

    out = 0
    for x in r.elements():
        if x == r.zero or not escapes(x):
            out |= 1 << x
    return out


@memo
def prime_radical_mask(r: RingTable) -> Mask:
    inter = r.full_mask()
    for m in min_prime_masks(r):
        inter &= m
    if inter != strongly_nilpotent_mask(r):
        raise EngineInvariantError(
            "prime radical: minimal-prime intersection disagrees "
            "with the strongly nilpotent elements"
        )
    return inter


def is_semiprime_ring(r: RingTable) -> bool:
    return prime_radical_mask(r) == 1 << r.zero


def nilpotency_index(r: RingTable, amask: Mask) -> int | None:
    """Least k with a^k = 0, or None; the power chain stabilizes within order."""
    power = amask
    seen = set()
    k = 1
    while power not in seen:
        if power == 1 << r.zero:
            return k
        seen.add(power)
        power = ideal_product_mask(r, power, amask)
        k += 1
    return None


def is_nilpotent_ideal(r: RingTable, amask: Mask) -> bool:
    return nilpotency_index(r, amask) is not None


# ---------------------------------------------------------------------------
# prime-rich characterization

def _products_reach(r: RingTable, factors: list[Mask]) -> set[Mask]:
    """All ideal products (length >= 1, any order) built from the factors."""
    return _closure_under(factors, lambda m, f: ideal_product_mask(r, m, f))


def _some_product_within(r: RingTable, amask: Mask, factors) -> bool:
    return any(m & ~amask == 0 for m in _products_reach(r, factors))


def is_prime_rich(r: RingTable) -> bool:
    """Every proper ideal contains a product of primes containing it."""
    return all(
        _some_product_within(r, a, _over(prime_masks(r), a))
        for a in all_ideal_masks(r)[:-1]  # the proper ideals; the whole ring is last
    )


def min_prime_exponent(r: RingTable, amask: Mask) -> int | None:
    """The least k <= |R| with (product of the minimal primes over a)^k <= a,
    or None."""
    mins = min_prime_masks_over(r, amask)
    if not mins:
        return None
    prod = mins[0]
    for m in mins[1:]:
        prod = ideal_product_mask(r, prod, m)
    power = prod
    for k in range(1, r.order + 1):
        if power & ~amask == 0:
            return k
        power = ideal_product_mask(r, power, prod)
    return None


def prime_rich_violation(r: RingTable, amask: Mask) -> tuple[str, str] | None:
    """The three equivalent prime-richness conditions and the minimal-prime
    exponent at one proper ideal: the first broken (clause, detail), or None."""
    c1 = _some_product_within(r, amask, _over(prime_masks(r), amask))
    c2 = _some_product_within(r, amask, min_prime_masks_over(r, amask))
    q = make_quotient(r, amask)[0] if amask != 1 << r.zero else r
    c3 = is_nilpotent_ideal(q, prime_radical_mask(q))  # |min(a)| is finite here by fiat
    if not (c1 == c2 == c3):
        return "three-way prime-rich agreement", f"ideal={list(bits(amask))} conditions={(c1, c2, c3)}"
    if min_prime_exponent(r, amask) is None:
        return "minimal-prime product exponent within order", f"ideal={list(bits(amask))}"
    return None


def is_irredundant_masks(r: RingTable, masks) -> bool:
    """Zero intersection, and dropping any one member makes it nonzero."""
    zero = 1 << r.zero
    total = r.full_mask()
    for m in masks:
        total &= m
    if total != zero:
        return False
    for skip in range(len(masks)):
        rest = r.full_mask()
        for j, m in enumerate(masks):
            if j != skip:
                rest &= m
        if rest == zero:
            return False
    return True

