"""The centre of a finite ring, restriction of primes, central localization.

The restriction map carries a prime of the ambient ring to its intersection
with the centre; it always lands in primes of the centre ring, but its
restriction to minimal primes may fail to be well-defined or surjective.
The four equivalent criteria for that failure mode are computed separately
and compared, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finring import (
    EngineInvariantError,
    Mask,
    RingError,
    RingHom,
    RingTable,
    audit_ring,
    bits,
    centre_mask,
    is_commutative,
    memo,
    product_hom,
    regular_mask,
)
from .ideals import (
    LEFT,
    TWO_SIDED,
    Ideal,
    classify_ideal,
    ideal_closure_mask,
    is_semiprime_ring,
    min_prime_masks_over,
    prime_masks,
)
from .localization import (
    Localization,
    MultSet,
    classify_set,
    localize,
    localize_left_ideal,
    two_sided_span,
)


@dataclass(frozen=True)
class CentreData:
    ring: RingTable
    centre: RingTable          # induced table on the central elements
    embedding: RingHom         # centre -> ring

    def restrict_mask(self, ambient_mask: Mask) -> Mask:
        """Intersection with the centre, re-indexed into the centre ring."""
        return self.embedding.preimage_mask(ambient_mask)


@memo
def centre_ring(r: RingTable) -> CentreData:
    zmask = centre_mask(r)
    elems = list(bits(zmask))
    index = {v: i for i, v in enumerate(elems)}
    n = len(elems)
    add = tuple(tuple(index[r.add[a][b]] for b in elems) for a in elems)
    mul = tuple(tuple(index[r.mul[a][b]] for b in elems) for a in elems)
    names = tuple(r.name(v) for v in elems)
    centre = RingTable(n, add, mul, index[r.zero], index[r.one], f"centre({r.label})", names)
    bad = audit_ring(centre)
    if bad or not is_commutative(centre):
        raise EngineInvariantError(f"{r.label}: induced centre table is defective: {bad[:1]}")
    emb = RingHom(centre, r, tuple(elems))
    return CentreData(r, centre, emb)


def restrict_prime(cd: CentreData, p: Ideal) -> Ideal:
    """p intersect Z(R) as an ideal of the centre ring; always prime there."""
    q = Ideal(cd.centre, cd.restrict_mask(p.mask), TWO_SIDED)
    if not classify_ideal(q).is_prime:
        raise EngineInvariantError(
            f"{cd.ring.label}: restriction of a prime is not prime in the centre"
        )
    return q


@dataclass(frozen=True)
class RestrictionMap:
    ring: RingTable
    centre_data: CentreData
    table: tuple[tuple[Mask, Mask], ...]      # (prime mask, restricted mask) over Spec(R)
    min_table: tuple[tuple[Mask, Mask], ...]  # the same over min(R)
    well_defined: bool                        # every minimal prime restricts minimally
    surjective_onto_min: bool                 # every minimal central prime is hit


@memo
def rho(r: RingTable) -> RestrictionMap:
    cd = centre_ring(r)
    table = []
    for pm in prime_masks(r):
        q = restrict_prime(cd, Ideal(r, pm))
        table.append((pm, q.mask))
    minset = set(min_prime_masks_over(r, 1 << r.zero))
    min_table = tuple((pm, qm) for pm, qm in table if pm in minset)
    centre_mins = set(min_prime_masks_over(cd.centre, 1 << cd.centre.zero))
    well = all(qm in centre_mins for _, qm in min_table)
    surj = centre_mins <= {qm for _, qm in min_table}
    return RestrictionMap(r, cd, tuple(table), min_table, well, surj)


@dataclass(frozen=True)
class RhoCriteria:
    applicable: bool
    regular_inclusion: bool | None    # regulars of the centre stay regular
    min_disjoint: bool | None         # central regulars avoid every minimal prime
    well_defined: bool | None
    agree: bool | None


def check_rho_criteria(r: RingTable) -> RhoCriteria:
    """The four equivalent well-definedness/surjectivity criteria, evaluated
    independently on a semiprime ring and compared."""
    if not is_semiprime_ring(r):
        return RhoCriteria(False, None, None, None, None)
    cd = centre_ring(r)
    central_regulars = cd.embedding.push_mask(regular_mask(cd.centre))
    c1 = central_regulars & ~regular_mask(r) == 0
    c2 = all(central_regulars & pm == 0 for pm in min_prime_masks_over(r, 1 << r.zero))
    rm = rho(r)
    c3 = rm.well_defined
    c4 = rm.surjective_onto_min
    return RhoCriteria(True, c1, c2, c3, c1 == c2 == c3 == c4)


# ---------------------------------------------------------------------------
# central localization

@dataclass(frozen=True)
class CentralLocReport:
    ring: RingTable
    prime: Ideal                   # prime of the centre ring
    localization: Localization
    in_image: bool                 # prime is hit by the restriction map
    extension_proper: bool         # R_q != R_q * q
    fiber_source: tuple[Mask, ...]
    bijection_ok: bool
    min_prime_in_fiber: bool | None  # some minimal prime restricts to the prime


def central_mult_set(r: RingTable, q: Ideal) -> MultSet:
    cd = centre_ring(r)
    if q.ring is not cd.centre:
        raise RingError("expected a prime of the centre ring")
    s = MultSet(r, cd.embedding.push_mask(cd.centre.full_mask() & ~q.mask))
    cls = classify_set(s)
    if not (cls.left_den and cls.right_den):
        raise EngineInvariantError(f"{r.label}: central set fails the denominator check")
    return s


def central_localize(r: RingTable, q: Ideal) -> CentralLocReport:
    """Localize at the central complement of a prime of the centre and verify
    the image criterion and the fiber bijection onto primes over R_q * q."""
    if not classify_ideal(q).is_prime:
        raise RingError("central localization requires a prime of the centre")
    cd = centre_ring(r)
    s = central_mult_set(r, q)
    loc = localize(r, s)
    t = loc.target

    in_image = any(cd.restrict_mask(pm) == q.mask for pm in prime_masks(r))
    q_lift = cd.embedding.push_mask(q.mask)
    extension = two_sided_span(t, ideal_closure_mask(t, loc.sigma.push_mask(q_lift), LEFT))
    extension_proper = extension != t.full_mask()

    fiber_source = tuple(pm for pm in prime_masks(r) if cd.restrict_mask(pm) == q.mask)
    fiber_target = tuple(pm for pm in prime_masks(t) if extension & ~pm == 0)
    images = []
    ok = True
    for pm in fiber_source:
        li = localize_left_ideal(loc, Ideal(r, pm))
        if not li.two_sided or li.mask not in fiber_target:
            ok = False
            break
        images.append(li.mask)
    bijection_ok = ok and len(set(images)) == len(fiber_source) and set(images) == set(fiber_target)

    min_in_fiber = None
    if in_image:
        min_in_fiber = any(
            cd.restrict_mask(pm) == q.mask for pm in min_prime_masks_over(r, 1 << r.zero)
        )
    return CentralLocReport(
        r, q, loc, in_image, extension_proper, fiber_source, bijection_ok, min_in_fiber
    )


# ---------------------------------------------------------------------------
# product decomposition along the minimal primes of the centre

@dataclass(frozen=True)
class PierceReport:
    applicable: bool
    embedding_ok: bool | None          # R -> prod R_q is an injective hom
    iso_if_commutative: bool | None    # and bijective for commutative R
    centres_match: bool | None         # sigma(Z(R)) = Z(R_q) with matching kernels
    factor_count: int | None


def check_pierce(r: RingTable) -> PierceReport:
    """Decompose along the minimal primes of the centre and verify the map."""
    if not is_semiprime_ring(r):
        return PierceReport(False, None, None, None, None)
    crit = check_rho_criteria(r)
    if not crit.regular_inclusion:
        return PierceReport(False, None, None, None, None)
    cd = centre_ring(r)
    qs = [Ideal(cd.centre, m) for m in min_prime_masks_over(cd.centre, 1 << cd.centre.zero)]
    locs = [localize(r, central_mult_set(r, q)) for q in qs]

    centres_match = True
    for q, loc in zip(qs, locs):
        t = loc.target
        if loc.sigma.push_mask(centre_mask(r)) != centre_mask(t):
            centres_match = False
        # kernel of Z(R) -> R_q must equal the kernel of Z(R) -> Z(R)_q
        zloc = localize(cd.centre, MultSet(cd.centre, cd.centre.full_mask() & ~q.mask))
        if cd.restrict_mask(loc.ass.mask) != zloc.ass.mask:
            centres_match = False

    hom = product_hom([loc.sigma for loc in locs])
    embedding_ok = not hom.verify() and hom.is_injective()
    iso = None
    if is_commutative(r):
        iso = embedding_ok and hom.is_bijective()
    return PierceReport(True, embedding_ok, iso, centres_match, len(qs))
