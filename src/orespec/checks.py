"""Executable checks, one per verified claim.

A claim registers one function per instance kind.  Each function runs on one
corpus instance and yields one item per case it evaluates: a bare `yield`
(None) when the case holds, and `yield clause, detail` when it breaks, the
same value the engine evaluators return, so a case decided by an evaluator is
`yield evaluator(...)`.  `decide` counts the cases and gives the verdict.
The first broken case fails the check with the cases read so far, and
nothing after it is read, so a check yields each broken clause where it
finds it and closes a case that held with a bare `yield`.  A check that
yields nothing is not applicable, never passed, so an all-green suite cannot
be vacuous.  Check ids are the stable registry keys used by reports and the
command line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import monomial as mono
from .centre import (
    central_localize,
    central_regulars_stay_regular,
    centre_ring,
    check_pierce,
    rho,
    rho_criteria,
)
from .finring import (
    Mask,
    RingHom,
    RingTable,
    additive_span,
    bits,
    canonical,
    element_invariants,
    inverse_table,
    is_commutative,
    make_quotient,
    mask_of,
    memo,
    normal_mask,
    product_hom,
    subsets,
    units_mask,
)
from .ideals import (
    LEFT,
    all_ideal_masks,
    ideal_closure_mask,
    ideal_sum_mask,
    is_irredundant_masks,
    is_nilpotent_ideal,
    is_prime_rich,
    is_semiprime_ring,
    min_prime_masks,
    min_prime_masks_over,
    prime_flags,
    prime_masks,
    prime_radical_mask,
    prime_rich_violation,
    _minimal_over,
    _products_reach,
)
from .localization import (
    EXHAUSTIVE_MULT_ORDER,
    MultSet,
    ass_l_realizable_masks,
    check_A11_equivalence,
    check_epimorphic_den_b14,
    check_epimorphic_den_c14,
    classify_set,
    closure_with_witness,
    has_normal_multiples,
    largest_regular_set,
    largest_set_assoc,
    left_denominator_sets,
    localize,
    localize_left_ideal,
    localize_normal,
    min_RS,
    normal_closure,
    regular_den,
    respects_prime_structure,
    submonoid_levels,
    t_l,
    vanishing_masks,
)


@dataclass(frozen=True)
class Outcome:
    status: str          # "pass" | "fail" | "na"
    cases: int = 0
    clause: str = ""
    detail: str = ""


@dataclass(frozen=True)
class TheoremCheck:
    kinds: tuple[str, ...]
    description: str
    note: str = ""


def decide(cases) -> Outcome:
    """The outcome of a check's cases: fail at the first broken one, pass if
    some case was evaluated, not applicable otherwise."""
    count = 0
    for failed in cases:
        count += 1
        if failed:
            return Outcome("fail", count, *failed)
    return Outcome("pass", count) if count else Outcome("na")


def _na(obj, cfg):
    """A kind on which the claim is vacuous: considered, never applicable."""
    return ()


def _dens(r: RingTable, cfg) -> tuple[MultSet, ...]:
    return left_denominator_sets(r, cfg.exhaustive_mult_order)


@memo
def _two_sided_dens(r: RingTable, cfg) -> tuple[MultSet, ...]:
    return tuple(s for s in _dens(r, cfg) if classify_set(s).right_den)


@memo
def _dens_by_ass(r: RingTable, cfg) -> dict[Mask, tuple[MultSet, ...]]:
    """The sets of _dens by their vanishing ideal ass_l, each group in the
    order of _dens."""
    groups: dict[Mask, list[MultSet]] = {}
    for s in _dens(r, cfg):
        groups.setdefault(classify_set(s).ass_l_mask, []).append(s)
    return {ass: tuple(group) for ass, group in groups.items()}


def _zero_dens(r: RingTable, cfg) -> tuple[MultSet, ...]:
    return _dens_by_ass(r, cfg).get(1 << r.zero, ())


@memo
def _normal_set_masks(r: RingTable, exhaustive_order: int = EXHAUSTIVE_MULT_ORDER) -> tuple[Mask, ...]:
    """Closures of at most two nonzero normal elements: levels 0-2 of the
    submonoid search over the normal pool, cut where mult_set_masks cuts its
    search, so when every element is normal the two read one search."""
    pool = normal_mask(r) & ~(1 << r.zero)
    levels = submonoid_levels(r, pool, None if r.order <= exhaustive_order else 2)
    return canonical(m for m, level in levels.items() if level <= 2)


def _quotients_isomorphic(f: RingHom, g: RingHom) -> bool:
    """Both targets are factor rings of one source with equal kernels: the map
    target(f) -> target(g) factoring g through the surjection f is a bijective
    homomorphism."""
    if f.source is not g.source or f.image_mask() != f.target.full_mask():
        return False
    table = [-1] * f.target.order
    for x in f.source.elements():
        y = f(x)
        if table[y] == -1:
            table[y] = g(x)
        elif table[y] != g(x):
            return False
    return RingHom(f.target, g.target, tuple(table)).is_isomorphism()


def _localized(r: RingTable, dens, masks):
    """(s, sigma, m) for every set s of dens, its localization, and every mask."""
    for s in dens:
        sigma = localize(r, s)
        for m in masks:
            yield s, sigma, m


@memo
def _image_class(hom: RingHom, smask: Mask):
    """The Ore classification of the image of a set under hom, memoised on
    hom."""
    return classify_set(MultSet(hom.target, hom.push_mask(smask)))


@memo
def _factor_matches(hom: RingHom, sigma: RingHom, jmask: Mask) -> bool:
    """R/p matches S^-1 R/J through the localization map sigma, where hom is
    the factor map R -> R/p."""
    return _quotients_isomorphic(hom, sigma.then(make_quotient(sigma.target, jmask)[1]))


def _localized_min_family(sigma: RingHom, pmasks) -> list[Mask]:
    return [localize_left_ideal(sigma, m).mask for m in pmasks]


def _minimals_biject(sigma: RingHom, pmasks) -> bool:
    """The localized primes are distinct and are exactly min(S^-1 R)."""
    family = _localized_min_family(sigma, pmasks)
    return len(set(family)) == len(pmasks) and set(min_prime_masks(sigma.target)) == set(family)


def _is_prime_ring(r: RingTable) -> bool:
    return prime_flags(r, 1 << r.zero).is_prime


def _spec_subset_budget(r: RingTable) -> bool:
    return len(prime_masks(r)) <= 14


# ---------------------------------------------------------------------------
# localized-ideal criteria


def check_a11(r: RingTable, cfg):
    for s, sigma, m in _localized(r, _dens(r, cfg), all_ideal_masks(r)):
        yield check_A11_equivalence(sigma, s.mask, m)


@memo
def _chain_limit(t: RingTable, jmask: Mask, u: int) -> Mask:
    """The limit of the ascending chain sum(J * u^j) of left ideals of t."""
    # shifts J*u^j repeat after the unit's order, the period of its powers,
    # so the union over one period is the limit of the ascending chain
    chain = shift = jmask
    for _ in range(element_invariants(t)[u][2]):
        shift = ideal_closure_mask(t, mask_of(t.mul[x][u] for x in bits(shift)), LEFT)
        chain = additive_span(t, chain | shift)
    return chain


def check_a11_vacuity(r: RingTable, cfg):
    """Every localized-ideal chain sum(J * u^-j) cycles with the unit's order,
    so it stabilizes mechanically and the localized ideal must be two-sided.
    The chain depends on a member s only through u = sigma(s)^-1, so it runs
    once per distinct u, and a failure names the first member with that u."""
    ideal_masks = [m for m in all_ideal_masks(r) if m != r.full_mask()]
    for s in _dens(r, cfg):
        sigma = localize(r, s)
        t = sigma.target
        inv = inverse_table(t)
        first = {}  # u -> the first member s of S with sigma(s)^-1 = u
        for sm in s.members():
            first.setdefault(inv[sigma(sm)], sm)
        for m in ideal_masks:
            li = localize_left_ideal(sigma, m)
            if li.two_sided:
                for u, sm in first.items():
                    if _chain_limit(t, li.mask, u) != li.mask:
                        yield "a two-sided image absorbs its chain", f"s={sm} b={list(bits(m))}"
            else:
                yield "stabilized chains force a two-sided image", f"b={list(bits(m))} S={s.members()}"
            yield


def check_prime_target_regular(r: RingTable, cfg):
    if not _is_prime_ring(r):
        return
    for s in _zero_dens(r, cfg):
        sigma = localize(r, s)
        if not _is_prime_ring(sigma.target):
            yield "localized ring prime", f"S={s.members()}"
        yield


def check_prime_localized_iff_ideal(r: RingTable, cfg):
    for s, sigma, pmask in _localized(r, _zero_dens(r, cfg), prime_masks(r)):
        li = localize_left_ideal(sigma, pmask)
        contracted = sigma.preimage_mask(li.mask)
        branches = []
        if contracted == pmask:
            branches.append(pmask)
        if prime_flags(r, contracted).is_prime:
            branches.append(contracted)
        for _ in branches:
            spec_member = li.two_sided and prime_flags(sigma.target, li.mask).is_prime
            if spec_member != li.two_sided:
                yield "prime localization iff two-sided", f"S={s.members()} p={list(bits(pmask))}"
            yield


def check_contraction_recovers_prime(r: RingTable, cfg):
    for s, sigma, pmask in _localized(r, _dens(r, cfg), prime_masks(r)):
        if pmask & s.mask:
            continue
        li = localize_left_ideal(sigma, pmask)
        if sigma.preimage_mask(li.mask) != pmask:
            yield "contraction returns the prime", f"S={s.members()} p={list(bits(pmask))}"
        yield


def check_prime_vanishing_target(r: RingTable, cfg):
    for s in _dens(r, cfg):
        cls = classify_set(s)
        if not prime_flags(r, cls.ass_l_mask).is_prime:
            continue
        sigma = localize(r, s)
        if not _is_prime_ring(sigma.target):
            yield "prime vanishing ideal forces a prime localization", f"S={s.members()}"
        yield


def check_image_den_regular(r: RingTable, cfg):
    for s, sigma, m in _localized(r, _dens(r, cfg), all_ideal_masks(r)):
        if sigma.kernel_mask() & ~m or m == r.full_mask():
            continue  # needs ass(S) <= b < R
        if not check_epimorphic_den_b14(sigma, s.mask, m):
            yield "image denominator iff regular image", f"S={s.members()} b={list(bits(m))}"
        yield


def check_image_den_torsion(r: RingTable, cfg):
    for s, sigma, m in _localized(r, _dens(r, cfg), all_ideal_masks(r)):
        ab = ideal_sum_mask(r, sigma.kernel_mask(), m)
        if ab & s.mask or ab == r.full_mask():
            continue  # needs ass(S) + b proper and disjoint from S
        if not check_epimorphic_den_c14(r, s.mask, ab):
            yield "two-step image criterion", f"S={s.members()} b={list(bits(m))}"
        yield


# ---------------------------------------------------------------------------
# prime products and prime-rich structure


def check_zero_products_bound_minimals(r: RingTable, cfg):
    if not _spec_subset_budget(r):
        return
    primes = prime_masks(r)
    minset = set(min_prime_masks(r))
    zero = 1 << r.zero
    for combo in subsets(primes, 1):
        reach = _products_reach(r, list(combo))
        if zero not in reach:
            continue
        if not minset <= set(combo):
            yield ("zero product bounds the minimal primes",
                   f"factors={[list(bits(m)) for m in combo]}")
        yield


def check_prime_rich_equivalence(r: RingTable, cfg):
    for amask in all_ideal_masks(r)[:-1]:  # the proper ideals; the whole ring is last
        yield prime_rich_violation(r, amask)


def check_ideal_preservation(r: RingTable, cfg):
    for s, sigma, m in _localized(r, _dens(r, cfg), all_ideal_masks(r)):
        if not localize_left_ideal(sigma, m).two_sided:
            yield "every localized ideal stays two-sided", f"S={s.members()} b={list(bits(m))}"
        yield


def check_min_primes_prime_rich(r: RingTable, cfg):
    rich = is_prime_rich(r)
    for s in _dens(r, cfg):
        sigma = localize(r, s)
        if not (rich and respects_prime_structure(sigma)):
            continue
        mrs = min_RS(r, s)
        family = _localized_min_family(sigma, mrs)
        if not all(prime_flags(sigma.target, fm).is_prime for fm in family):
            continue
        minmask = set(min_prime_masks(sigma.target))
        fam_set = set(family)
        minimal_members = set(_minimal_over(fam_set, 1 << sigma.target.zero))
        if not mrs:
            yield "1 <= |min(R,S)| <= |min(R)|", f"S={s.members()}"
        if minmask != minimal_members:
            yield ("localized minimal primes are the minimal localized family",
                   f"S={s.members()}")
        incomparable = all(
            a == b or (a & ~b and b & ~a) for a in fam_set for b in fam_set
        )
        if (minmask == fam_set) != incomparable:
            yield "set equality iff incomparable", f"S={s.members()}"
        if minmask != fam_set:
            # right modules of a finite ring are finitely generated
            yield "finitely-generated contraction forces equality", f"S={s.members()}"
        yield


def check_min_primes_noetherian(r: RingTable, cfg):
    for s in _two_sided_dens(r, cfg):
        cls = classify_set(s)
        if cls.ass_l_mask != 1 << r.zero or cls.ass_r_mask != 1 << r.zero:
            continue
        sigma = localize(r, s)
        mrs = min_RS(r, s)
        family = set(_localized_min_family(sigma, mrs))
        if not mrs:
            yield "min(R,S) non-empty", f"S={s.members()}"
        if set(min_prime_masks(sigma.target)) != family:
            yield "localized minimal primes from min(R,S)", f"S={s.members()}"
        yield


def check_irredundant_characterization(r: RingTable, cfg):
    if not is_semiprime_ring(r) or not _spec_subset_budget(r):
        return
    minset = set(min_prime_masks(r))
    primes = prime_masks(r)
    if not is_irredundant_masks(r, sorted(minset)):
        yield ("minimal primes form an irredundant family",
               f"family={[list(bits(m)) for m in sorted(minset)]}")
    yield
    for combo in subsets(primes, 1):
        if is_irredundant_masks(r, combo) and set(combo) != minset:
            yield ("only the minimal primes are irredundant",
                   f"family={[list(bits(m)) for m in combo]}")
        yield


# ---------------------------------------------------------------------------
# minimal primes of localizations of semiprime rings


def _check_regular_den_bijection(r: RingTable, s: MultSet) -> tuple[str, str] | None:
    """The first failed (clause, detail) for one regular denominator set."""
    sigma = localize(r, s)
    t = sigma.target
    if not is_semiprime_ring(t):
        return "localized ring semiprime", f"S={s.members()}"
    mins = min_prime_masks(r)
    if not _minimals_biject(sigma, mins):
        return "minimal primes biject under localization", f"S={s.members()}"
    for pmask in mins:
        q, hom = make_quotient(r, pmask)
        cls = _image_class(hom, s.mask)
        if not regular_den(q, cls):
            return ("image is a zero-vanishing denominator set of the factor",
                    f"S={s.members()} p={list(bits(pmask))}")
        jmask = localize_left_ideal(sigma, pmask).mask
        if not _factor_matches(hom, sigma, jmask):
            return ("factor of the localization matches the localized factor",
                    f"S={s.members()} p={list(bits(pmask))}")
    return None


def check_semiprime_regular_bijection(r: RingTable, cfg):
    if not is_semiprime_ring(r):
        return
    for s in _zero_dens(r, cfg):
        yield _check_regular_den_bijection(r, s)


def check_largest_quotient_minimals(r: RingTable, cfg):
    if not is_semiprime_ring(r):
        return
    s = largest_regular_set(r)
    if failed := _check_regular_den_bijection(r, s):
        yield failed
    for pmask in min_prime_masks(r):
        q, hom = make_quotient(r, pmask)
        if hom.push_mask(s.mask) & ~units_mask(q):
            yield ("image of the largest regular set stays in the factor's",
                   f"p={list(bits(pmask))}")
    yield


def check_semiprime_vanishing_bijection(r: RingTable, cfg):
    for s in _dens(r, cfg):
        cls = classify_set(s)
        amask = cls.ass_l_mask
        if not prime_flags(r, amask).is_semiprime_ideal:
            continue  # vanishing ideal must be semiprime
        sigma = localize(r, s)
        t = sigma.target
        if not is_semiprime_ring(t):
            yield ("localization at a semiprime vanishing ideal is semiprime",
                   f"S={s.members()}")
        if not _minimals_biject(sigma, min_prime_masks_over(r, amask)):
            yield "minimal primes over the vanishing ideal biject", f"S={s.members()}"
        yield


def check_largest_sets_and_embedding(r: RingTable, cfg):
    mins = min_prime_masks(r)
    quots = [make_quotient(r, m) for m in mins]
    if is_semiprime_ring(r):
        u = units_mask(r)
        for (q, hom), pmask in zip(quots, mins):
            if hom.push_mask(u) & ~units_mask(q):
                yield "largest regular sets restrict along factors", f"p={list(bits(pmask))}"
    hom = product_hom([hom for _, hom in quots])
    where = f"primes={[list(bits(m)) for m in mins]}"
    if hom.verify():
        yield "canonical map into the product is a homomorphism", where
    if hom.is_injective() != is_semiprime_ring(r):
        yield "injective into the factor product iff semiprime", where
    yield


def check_largest_set_preimage(r: RingTable, cfg):
    for amask in ass_l_realizable_masks(r, cfg.exhaustive_mult_order):
        smax = largest_set_assoc(r, amask, cfg.exhaustive_mult_order)
        q, hom = make_quotient(r, amask)
        if hom.push_mask(smax.mask) != units_mask(q):
            yield ("preimage maps onto the factor's largest regular set",
                   f"a={list(bits(amask))}")
        for s in _dens_by_ass(r, cfg).get(amask, ()):
            if s.mask & ~smax.mask:
                yield ("maximality of the unit preimage",
                       f"a={list(bits(amask))} S={s.members()}")
        qsigma = localize(q, MultSet(q, units_mask(q)))
        if not _quotients_isomorphic(localize(r, smax), hom.then(qsigma)):
            yield "largest quotient ring matches the factor's", f"a={list(bits(amask))}"
        yield


def _difference_criterion(r: RingTable, members, alz: Mask) -> bool:
    """For every s among members and every x, some s'x - x's lies in alz,
    with s' among members and x' in R.  s'x - x's = a for some a in alz
    exactly when s'x = a + x's, so the criterion asks that every Tx, T the
    members, meets alz + Rs; both are read elementwise from the tables."""
    add, mul = r.add, r.mul
    columns = [mask_of(mul[sp][x] for sp in members) for x in r.elements()]  # Tx
    for s in members:
        multiples = {mul[xp][s] for xp in r.elements()}  # Rs
        reach = mask_of(add[a][y] for a in bits(alz) for y in multiples)  # alz + Rs
        if not all(column & reach for column in columns):
            return False
    return True


def check_prime_preimage_sets(r: RingTable, cfg):
    if not is_semiprime_ring(r):
        return
    inter_l = r.full_mask()
    inter_r = r.full_mask()
    for pmask in min_prime_masks(r):
        tset = t_l(r, pmask)
        alz, arz = vanishing_masks(r, tset.mask)
        inter_l &= alz
        inter_r &= arz
        if alz & ~pmask or arz & ~pmask:
            yield "vanishing sets stay inside the prime", f"p={list(bits(pmask))}"
        cls = classify_set(tset)
        if cls.left_ore != _difference_criterion(r, tset.members(), alz):
            yield "left Ore iff the difference criterion", f"p={list(bits(pmask))}"
        if cls.left_den:
            sigma = localize(r, tset)
            li = localize_left_ideal(sigma, pmask)
            if not li.two_sided:
                yield "localized prime is two-sided", f"p={list(bits(pmask))}"
            q, hom = make_quotient(r, pmask)
            if not _factor_matches(hom, sigma, li.mask):
                yield ("factor of the prime localization is the prime factor",
                       f"p={list(bits(pmask))}")
            if alz == pmask:
                for s in _dens_by_ass(r, cfg).get(pmask, ()):
                    if s.mask & ~tset.mask:
                        yield ("unit preimage is the largest set at its prime",
                               f"p={list(bits(pmask))} S={s.members()}")
        yield
    if inter_l != 1 << r.zero or inter_r != 1 << r.zero:
        yield ("vanishing sets intersect to zero",
               f"ass_l={list(bits(inter_l))} ass_r={list(bits(inter_r))}")


def check_zero_divisor_den_equivalence(r: RingTable, cfg):
    if not is_semiprime_ring(r):
        return
    for s in _dens(r, cfg):
        sigma = localize(r, s)
        t = sigma.target
        mrs = min_RS(r, s)
        if not mrs:
            yield "min(R,S) non-empty on a semiprime ring", f"S={s.members()}"
        family = _localized_min_family(sigma, mrs)
        st1 = is_semiprime_ring(t) and set(min_prime_masks(t)) == set(family)
        st2 = True
        for pmask, fm in zip(mrs, family):
            li_two_sided = localize_left_ideal(sigma, pmask).two_sided
            factor_prime = prime_flags(t, fm).is_prime
            if not (li_two_sided and factor_prime):
                st2 = False
                break
        if st1 != st2:
            yield "semiprime description iff prime factors", f"S={s.members()}"
        if st1:
            closed, witness = normal_closure(s)
            by_normal = witness is None and closed == s.mask
            if (by_normal or has_normal_multiples(s)) and len(set(family)) != len(mrs):
                yield ("normal generation forces distinct localized primes",
                       f"S={s.members()}")
        yield


def check_commutative_corollary(r: RingTable, cfg):
    if not (is_semiprime_ring(r) and is_commutative(r)):
        return
    for s in _dens(r, cfg):
        sigma = localize(r, s)
        mrs = min_RS(r, s)
        if not (_minimals_biject(sigma, mrs) and is_semiprime_ring(sigma.target)):
            yield ("commutative localization preserves the minimal primes",
                   f"S={s.members()}")
        yield


def check_completely_prime_corollary(r: RingTable, cfg):
    if not is_semiprime_ring(r):
        return
    for s in _two_sided_dens(r, cfg):
        mrs = min_RS(r, s)
        sigma = localize(r, s)
        t = sigma.target
        hyp = all(
            prime_flags(r, m).is_completely_prime
            and localize_left_ideal(sigma, m).two_sided
            for m in mrs
        )
        if not hyp:
            continue
        ok = _minimals_biject(sigma, mrs) and is_semiprime_ring(t) and all(
            fm == t.full_mask() or prime_flags(t, fm).is_completely_prime
            for fm in _localized_min_family(sigma, mrs)
        )
        if not ok:
            yield "completely prime minimal primes descend", f"S={s.members()}"
        yield


# ---------------------------------------------------------------------------
# normal-element localization


def check_normal_set_localizes(r: RingTable, cfg):
    for smask in _normal_set_masks(r, cfg.exhaustive_mult_order):
        sigma = localize_normal(r, smask)
        t = sigma.target
        cls = _image_class(sigma, smask)
        if not (regular_den(t, cls) and cls.right_den):
            yield ("image is a two-sided zero-vanishing denominator set",
                   f"S={sorted(bits(smask))}")
        yield


def _a2oct_finite(r: RingTable, smask: Mask) -> tuple[str, str] | None:
    """The first failed (clause, detail) for one normal multiplicative set."""
    sigma = localize_normal(r, smask)
    amask = sigma.kernel_mask()
    mins = min_prime_masks_over(r, amask) if amask != r.full_mask() else ()
    rbar = sigma.target
    pushes = [sigma.push_mask(m) for m in mins]
    if len(set(pushes)) != len(mins):
        return ("minimal primes inject into the localized spectrum",
                f"S={sorted(bits(smask))}")
    nbar = prime_radical_mask(rbar)
    rtilde, tpi = make_quotient(rbar, nbar)
    cls = _image_class(tpi, sigma.push_mask(smask))
    if not (regular_den(rtilde, cls) and cls.right_den):
        return ("reduced image is a zero-vanishing denominator set",
                f"S={sorted(bits(smask))}")
    tilde_pushes = [tpi.push_mask(p) for p in pushes]
    if len(set(tilde_pushes)) != len(mins) or set(min_prime_masks(rtilde)) != set(tilde_pushes):
        return "reduced minimal primes biject", f"S={sorted(bits(smask))}"
    for pmask, push in zip(mins, pushes):
        q, hom = make_quotient(r, pmask)
        qcls = _image_class(hom, smask)
        if not (regular_den(q, qcls) and qcls.right_den):
            return "factor image is a denominator set", f"p={list(bits(pmask))}"
        if not _factor_matches(hom, sigma, push):
            return "factor rings of the localization agree", f"p={list(bits(pmask))}"
    if not is_nilpotent_ideal(rbar, nbar):
        return "radical of the image ring is nilpotent", f"S={sorted(bits(smask))}"
    if set(min_prime_masks(rbar)) != set(pushes):
        return ("minimal primes over the vanishing ideal biject",
                f"S={sorted(bits(smask))}")
    return None


def check_normal_localization_minimals(r: RingTable, cfg):
    for smask in _normal_set_masks(r, cfg.exhaustive_mult_order):
        yield _a2oct_finite(r, smask)


def check_monomial_localization_bijection(r: mono.CommMonomialRing, cfg):
    for combo in subsets(range(r.nvars), 1):
        try:
            yield mono.localize_monomial(r, mask_of(combo))
        except mono.CollapsedLocalizationError:
            continue


def check_an_localization_bijection(a: mono.AnAlgebra, cfg):
    for combo in subsets(range(1, a.pairs + 1), 1):
        yield mono.an_localize_normal(a, combo)


def check_normal_subset_variant(r: RingTable, cfg):
    for s in _dens(r, cfg):
        if not has_normal_multiples(s):
            continue
        members = s.members()
        closed, witness = normal_closure(s)
        if witness is not None:
            yield "normal subset is multiplicative", f"S={members}"
        cls_full = classify_set(s)
        cls_sub = classify_set(MultSet(r, closed))
        if not cls_sub.left_den or cls_sub.ass_l_mask != cls_full.ass_l_mask:
            yield "normal subset has the same vanishing ideal", f"S={members}"
        yield


def check_an_central_variant(a: mono.AnAlgebra, cfg):
    for v in range(1, a.pairs + 1):
        g = mono.noncommuting_generator(a, mono.an_z(a, v))
        if g:
            yield "generator is normal", f"z{v} does not commute with {g}"
        yield mono.an_localize_normal(a, {v})


# ---------------------------------------------------------------------------
# centre-restriction statements


def check_central_fibers(r: RingTable, cfg):
    for qmask in prime_masks(centre_ring(r).source):
        yield central_localize(r, qmask)


def check_restriction_well_defined(r: RingTable, cfg):
    if not is_semiprime_ring(r):
        return
    criteria = rho_criteria(r)[:3]
    if len(set(criteria)) > 1:
        yield "three-way centre criterion", f"criteria={criteria}"
    yield


def check_restriction_surjective(r: RingTable, cfg):
    if not is_semiprime_ring(r):
        return
    criteria = rho_criteria(r)
    if len(set(criteria)) > 1:
        yield "four-way centre criterion", f"criteria={criteria}"
    yield


def check_centre_semiprime(r: RingTable, cfg):
    if not is_semiprime_ring(r):
        return
    iota = centre_ring(r)
    if not is_semiprime_ring(iota.source):
        yield "centre of a semiprime ring is semiprime", f"Z={list(iota.map)}"
    hit = {qm for _, qm in rho(r).table}
    image_minimals = set(min_prime_masks(iota.source)) & hit
    if len(image_minimals) > len(min_prime_masks(r)):
        yield ("hit central minimal primes within the bound",
               f"hit={sorted(list(bits(qm)) for qm in image_minimals)}")
    yield


def check_centre_decomposition(r: RingTable, cfg):
    if is_semiprime_ring(r) and central_regulars_stay_regular(r):
        yield check_pierce(r)


def check_unit_group_of_quotient(r: RingTable, cfg):
    s = largest_regular_set(r)
    sigma = localize(r, s)
    t = sigma.target
    where = f"S={s.members()}"
    if sigma.preimage_mask(units_mask(t)) != units_mask(r):
        yield "largest set of the quotient contracts to the source's", where
    inv = inverse_table(t)
    image = sigma.push_mask(s.mask)
    # units of a finite ring have finite order, so the monoid generated by
    # the images and their inverses is the group they generate
    group = closure_with_witness(t, image | mask_of(inv[g] for g in bits(image)))[0]
    if group != units_mask(t):
        yield "units generated by the set and its inverses", where
    fractions = {t.mul[inv[sigma(a)]][sigma(b)] for a in s.members() for b in s.members()}
    if fractions != set(bits(units_mask(t))):
        yield "units are the one-sided fractions of the set", where
    if not localize(t, largest_regular_set(t)).is_isomorphism():
        yield "localizing twice changes nothing", where
    yield


def check_laurent_units(r: mono.CommMonomialRing, cfg):
    if not mono.is_squarefree(r):
        return  # regular_variables is exact on squarefree ideals only
    regs = mono.regular_variables(r)
    bound = 2
    ranges = [range(-bound, bound + 1) if regs >> i & 1 else range(0, bound + 1)
              for i in range(r.nvars)]

    def nonzero(exps) -> bool:
        # gens avoid the inverted variables, so the positive part decides
        return not mono.monomial_in_ideal(tuple(max(e, 0) for e in exps), r.gens)

    grid = [e for e in itertools.product(*ranges) if nonzero(e)]
    for exps in grid:
        # route one: search for an actual inverse monomial in the grid
        inverse = tuple(-e for e in exps)
        invertible = all(-bound <= e <= bound for e in inverse) and \
            all(inverse[i] >= 0 for i in range(r.nvars) if not regs >> i & 1) and \
            nonzero(inverse)
        # route two: Laurent monomials in the inverted variables, s^-1 t form
        laurent = all(e == 0 for i, e in enumerate(exps) if not regs >> i & 1)
        if invertible != laurent:
            yield "localized monomial units are the inverted-variable fractions", f"exp={exps}"
    yield


# ---------------------------------------------------------------------------
# the pairing-algebra track


def check_pairing_algebra(a: mono.AnAlgebra, cfg):
    yield mono.an_verify(a)


def _localize_regular(r: mono.CommMonomialRing, vmask: Mask):
    """One case: invert variables that are regular, so that no generator
    meets them and the saturation is the ideal itself."""
    if any(mono.support(g) & vmask for g in r.gens):
        yield "regular variables meet no generator", f"V={[v + 1 for v in bits(vmask)]}"
    yield mono.localize_monomial(r, vmask)


def check_regular_var_bijection(r: mono.CommMonomialRing, cfg):
    if not mono.is_squarefree(r):
        return
    for combo in subsets(bits(mono.regular_variables(r))):
        yield from _localize_regular(r, mask_of(combo))


def check_all_regular_var_localization(r: mono.CommMonomialRing, cfg):
    if not mono.is_squarefree(r):
        return  # regular_variables is exact on squarefree ideals only
    yield from _localize_regular(r, mono.regular_variables(r))


# ---------------------------------------------------------------------------
# registry: each entry maps an instance kind to the function that checks the
# claim on it; the harness runs a check only on the kinds it lists

REGISTRY: dict[str, tuple[TheoremCheck, dict[str, object]]] = {}


def _register(id_, description, note="", **by_kind):
    REGISTRY[id_] = (TheoremCheck(tuple(by_kind), description, note), by_kind)


_register("A11Sep23",
          "five equivalent forms of 'the localized left ideal is two-sided' agree",
          finite=check_a11)
_register("aA11Sep23",
          "localized-ideal chains stabilize, so every localized ideal is two-sided",
          finite=check_a11_vacuity,
          note="the strictly-increasing alternative needs non-Noetherian rings; vacuous here")
_register("a10Sep23",
          "localizing a prime ring at a regular denominator set stays prime",
          finite=check_prime_target_regular)
_register("a6Oct23",
          "a localized prime is prime exactly when it stays two-sided",
          finite=check_prime_localized_iff_ideal)
_register("Aa6Oct23",
          "contraction recovers primes disjoint from the denominator set",
          finite=check_contraction_recovers_prime)
_register("Xa10Sep23",
          "a prime vanishing ideal forces a prime localization",
          finite=check_prime_vanishing_target)
_register("b14Oct23",
          "the image of a denominator set is one iff it consists of regular elements",
          finite=check_image_den_regular)
_register("c14Oct23",
          "two-step image criterion through the image's own vanishing ideal",
          finite=check_image_den_torsion)
_register("A29Sep23",
          "a zero product of primes bounds the set of minimal primes",
          finite=check_zero_products_bound_minimals)
_register("aA29Sep23",
          "three equivalent characterizations of prime-rich rings agree",
          finite=check_prime_rich_equivalence)
_register("B29Sep23",
          "with a Noetherian localization every denominator set preserves ideals",
          finite=check_ideal_preservation)
_register("29Sep23",
          "minimal primes of a localization of a prime-rich ring",
          finite=check_min_primes_prime_rich)
_register("a29Sep23",
          "Noetherian two-sided regular localization preserves minimal primes",
          finite=check_min_primes_noetherian,
          note="on finite rings this coincides with the regular-set bijection; kept for coverage")
_register("b10Sep23",
          "the minimal primes are the only irredundant family of primes",
          finite=check_irredundant_characterization)
_register("A10Sep23",
          "regular localization of a semiprime ring preserves the minimal primes",
          finite=check_semiprime_regular_bijection,
          monomial=check_regular_var_bijection,
          an=_na,
          note="finite regular sets are units; the monomial track carries the substance")
_register("c10Sep23",
          "the largest regular quotient ring keeps the minimal primes",
          finite=check_largest_quotient_minimals,
          monomial=check_all_regular_var_localization,
          an=_na,
          note="finite instantiation is the identity; monomial track inverts all regular variables")
_register("aA10Sep23",
          "localization at a semiprime vanishing ideal stays semiprime with the same minimals",
          finite=check_semiprime_vanishing_bijection)
_register("A15Sep23",
          "largest regular sets restrict along minimal factors; the factor product embeds",
          finite=check_largest_sets_and_embedding)
_register("a20Sep23",
          "the largest set at a vanishing ideal is the unit preimage from the factor",
          finite=check_largest_set_preimage)
_register("19Sep23",
          "unit preimages at minimal primes: vanishing bounds, Ore criterion, factors",
          finite=check_prime_preimage_sets)
_register("28Sep23",
          "zero-divisor denominator sets: semiprime description iff prime factors",
          finite=check_zero_divisor_den_equivalence)
_register("a28Sep23",
          "commutative semiprime localizations keep their minimal primes distinct",
          finite=check_commutative_corollary)
_register("b28Sep23",
          "completely prime minimal primes descend to the localization",
          finite=check_completely_prime_corollary)
_register("10Jan19",
          "normal multiplicative sets localize: the vanishing ideal is two-sided and proper",
          finite=check_normal_set_localizes)
_register("A2Oct23",
          "normal-element localization: minimal primes over the vanishing ideal biject",
          finite=check_normal_localization_minimals,
          monomial=check_monomial_localization_bijection,
          an=check_an_localization_bijection)
_register("a5Oct23",
          "sets whose elements have normal multiples localize through their normal part",
          finite=check_normal_subset_variant,
          monomial=_na,
          an=check_an_central_variant)
_register("A25Sep23",
          "central fibers: hit primes, proper extensions, and the fiber bijection",
          finite=check_central_fibers)
_register("aB25Sep23",
          "well-definedness criterion for restricting minimal primes to the centre",
          finite=check_restriction_well_defined,
          note="the negated form is the same computation; one registry entry covers both")
_register("B25Sep23",
          "surjectivity criterion for restricting minimal primes to the centre",
          finite=check_restriction_surjective)
_register("a25Sep23",
          "the centre of a semiprime ring is semiprime",
          finite=check_centre_semiprime)
_register("aC25Sep23",
          "decomposition along the minimal primes of the centre",
          finite=check_centre_decomposition)
_register("4Jul10",
          "units of the largest quotient ring are the one-sided fractions of the set",
          finite=check_unit_group_of_quotient,
          monomial=check_laurent_units,
          an=_na,
          note="finite instantiation is the unit group; monomial track checks Laurent units")
_register("b29Sep23",
          "the pairing algebra: minimal primes, domain quotients, centre, restrictions",
          an=check_pairing_algebra)


COVERAGE = tuple(REGISTRY)
