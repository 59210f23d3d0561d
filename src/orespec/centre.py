"""The centre of a finite ring, restriction of primes, central localization.

The restriction map carries a prime of the ambient ring to its intersection
with the centre; it always lands in primes of the centre ring, but its
restriction to minimal primes may fail to be well-defined or surjective.
Two of the four equivalent criteria for that failure mode are predicates
here; the map itself gives the other two, and the checks compare all four,
never assume they agree.

The centre itself is its embedding Z(R) -> R, whose source is the table
induced on the central elements.  That table is checked as a quotient is:
within a run it is the run's table of its content, so the centre of a
commutative ring is the ring itself and its lattice, primes and
localizations are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finring import (
    EngineInvariantError,
    Mask,
    RingError,
    RingHom,
    RingTable,
    _checked,
    bits,
    canonical,
    centre_mask,
    is_commutative,
    memo,
    product_hom,
    regular_mask,
)
from .ideals import (
    ideal_closure_mask,
    is_semiprime_ring,
    min_prime_masks,
    prime_flags,
    prime_masks,
    _over,
)
from .localization import (
    MultSet,
    classify_set,
    localize,
    localize_left_ideal,
    min_RS,
)


@memo
def centre_ring(r: RingTable) -> RingHom:
    """The embedding of the centre, Z(R) -> R."""
    elems = bits(centre_mask(r))
    index = {v: i for i, v in enumerate(elems)}
    add = tuple(tuple(index[r.add[a][b]] for b in elems) for a in elems)
    mul = tuple(tuple(index[r.mul[a][b]] for b in elems) for a in elems)
    names = tuple(r.name(v) for v in elems)
    centre = _checked(RingTable(len(elems), add, mul, index[r.zero], index[r.one],
                                f"centre({r.label})", names))
    if not is_commutative(centre):
        raise EngineInvariantError("induced centre table is not commutative")
    return RingHom(centre, r, elems)


@dataclass(frozen=True)
class RestrictionMap:
    table: tuple[tuple[Mask, Mask], ...]  # (prime mask, restricted mask) over Spec(R)
    well_defined: bool                    # every minimal prime restricts minimally
    surjective_onto_min: bool             # every minimal central prime is hit


@memo
def rho(r: RingTable) -> RestrictionMap:
    iota = centre_ring(r)
    table = tuple((pm, iota.preimage_mask(pm)) for pm in prime_masks(r))
    # p intersect Z(R) is always prime in the centre ring
    if not all(prime_flags(iota.source, qm).is_prime for _, qm in table):
        raise EngineInvariantError("restriction of a prime is not prime in the centre")
    minset = set(min_prime_masks(r))
    min_table = tuple((pm, qm) for pm, qm in table if pm in minset)
    centre_mins = set(min_prime_masks(iota.source))
    well = all(qm in centre_mins for _, qm in min_table)
    surj = centre_mins <= {qm for _, qm in min_table}
    return RestrictionMap(table, well, surj)


def _central_regulars(r: RingTable) -> Mask:
    """The regular elements of the centre ring, as a mask of the ring."""
    iota = centre_ring(r)
    return iota.push_mask(regular_mask(iota.source))


def central_regulars_stay_regular(r: RingTable) -> bool:
    """Criterion one for rho: every regular element of Z(R) is regular in R."""
    return _central_regulars(r) & ~regular_mask(r) == 0


def central_regulars_miss_min_primes(r: RingTable) -> bool:
    """Criterion two for rho: no regular element of Z(R) lies in a minimal
    prime of R."""
    central = _central_regulars(r)
    return all(central & pm == 0 for pm in min_prime_masks(r))


def rho_criteria(r: RingTable) -> tuple[bool, bool, bool, bool]:
    """The four criteria that agree on a semiprime ring: central regulars
    stay regular, they miss min(R), rho is well defined on min(R), and it is
    onto the minimal primes of the centre."""
    rm = rho(r)
    return (central_regulars_stay_regular(r), central_regulars_miss_min_primes(r),
            rm.well_defined, rm.surjective_onto_min)


# ---------------------------------------------------------------------------
# central localization

def central_mult_set(r: RingTable, qmask: Mask) -> MultSet:
    """The complement of a prime of the centre ring, as a set of the ring."""
    iota = centre_ring(r)
    s = MultSet(r, iota.push_mask(iota.source.full_mask() & ~qmask))
    cls = classify_set(s)
    if not (cls.left_den and cls.right_den):
        raise EngineInvariantError("central set fails the denominator check")
    return s


def central_localize(r: RingTable, qmask: Mask) -> tuple[str, str] | None:
    """Localize at the central complement of a prime q of the centre: the first
    broken (clause, detail) of the image criterion, the fiber bijection onto
    the primes over R_q * q, and the minimal prime in a hit fiber, or None."""
    iota = centre_ring(r)
    if not prime_flags(iota.source, qmask).is_prime:
        raise RingError("central localization requires a prime of the centre")
    sigma = localize(r, central_mult_set(r, qmask))
    t = sigma.target
    where = f"q={list(bits(qmask))}"

    fiber_source = [pm for pm, qm in rho(r).table if qm == qmask]
    extension = ideal_closure_mask(t, sigma.push_mask(iota.push_mask(qmask)))
    if bool(fiber_source) != (extension != t.full_mask()):
        return "prime is hit iff the extension is proper", where

    # the localized fiber primes are two-sided and list the primes over the
    # extension, each once
    fiber_target = tuple(_over(prime_masks(t), extension))
    images = [localize_left_ideal(sigma, pm) for pm in fiber_source]
    if not all(li.two_sided for li in images) or canonical(li.mask for li in images) != fiber_target:
        return "fiber bijection", where

    if fiber_source and not set(fiber_source) & set(min_prime_masks(r)):
        return "a minimal prime lies in every hit fiber", where
    return None


# ---------------------------------------------------------------------------
# product decomposition along the minimal primes of the centre

def check_pierce(r: RingTable) -> tuple[str, str] | None:
    """Decompose a semiprime ring whose central regulars stay regular along the
    minimal primes q of its centre: the first broken (clause, detail) of the
    decomposition, or None."""
    iota = centre_ring(r)
    z = iota.source
    mins = min_prime_masks(r)
    qmins = min_prime_masks(z)
    sigmas = []
    for qmask in qmins:
        s = central_mult_set(r, qmask)
        sigma = localize(r, s)
        sigmas.append(sigma)
        t = sigma.target
        where = f"q={list(bits(qmask))}"
        # kernel of Z(R) -> R_q must equal the kernel of Z(R) -> Z(R)_q
        zsigma = localize(z, MultSet(z, z.full_mask() & ~qmask))
        if (sigma.push_mask(centre_mask(r)) != centre_mask(t)
                or iota.preimage_mask(sigma.kernel_mask()) != zsigma.kernel_mask()):
            return "centres localize along the decomposition", where
        # primes meeting the central complement blow up to the whole ring,
        # so only the disjoint minimal primes can appear downstairs
        family = {localize_left_ideal(sigma, m).mask for m in min_RS(r, s)}
        if not is_semiprime_ring(t) or set(min_prime_masks(t)) != family or len(family) > len(mins):
            return "central factors are semiprime with localized minimals", where

    hom = product_hom(sigmas)
    where = f"q={[list(bits(qmask)) for qmask in qmins]}"
    if hom.verify() or not hom.is_injective():
        return "embedding into the central factors", where
    if is_commutative(r) and not hom.is_bijective():
        return "commutative decomposition is exact", where
    return None
