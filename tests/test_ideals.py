import math

from orespec.finring import (
    canonical,
    is_two_sided_ideal_mask,
    make_gf,
    make_product,
    make_zmod,
    mask_of,
)
from orespec.ideals import (
    PrimeReport,
    all_ideal_masks,
    ideal_closure_mask,
    ideal_product_mask,
    is_irredundant_masks,
    is_nilpotent_ideal,
    is_prime_rich,
    is_semiprime_ring,
    min_prime_exponent,
    min_prime_masks,
    min_prime_masks_over,
    nilpotency_index,
    prime_flags,
    prime_masks,
    prime_radical_mask,
    prime_rich_violation,
    strongly_nilpotent_mask,
)
from orespec.localization import vanishing_masks


def all_ideal_masks_exhaustive(r):
    """Oracle for the ideal lattice: every subset of a ring of order at most
    12 that is a two-sided ideal, in the lattice's order."""
    assert r.order <= 12
    return canonical(m for m in range(1 << r.order) if is_two_sided_ideal_mask(r, m))


def is_prime_lattice_test(r, pmask):
    """Oracle for primality: a proper P is prime iff AB <= P forces A <= P or
    B <= P, A and B ranging over the ideal lattice."""
    assert pmask != r.full_mask()
    notin = [m for m in all_ideal_masks(r) if m & ~pmask]
    return not any(ideal_product_mask(r, a, b) & ~pmask == 0 for a in notin for b in notin)


M2_E11 = 1  # [[1,0],[0,0]] in mat(2, gf(2)) row-major little-endian digits
T2_E12 = 2


def ideal_of_multiples(r, d):
    return mask_of(x for x in range(r.order) if x % d == 0)


def test_generated_by_zero_is_zero(z12):
    assert ideal_closure_mask(z12, 1 << 0) == 1


def test_generated_in_zmod12_matches_divisor_oracle(z12):
    assert ideal_closure_mask(z12, 1 << 8) == mask_of([0, 4, 8])
    for g in range(1, 12):
        d = math.gcd(g, 12)
        assert ideal_closure_mask(z12, 1 << g) == ideal_of_multiples(z12, d)


def test_matrix_ring_is_simple(m2f2):
    assert ideal_closure_mask(m2f2, 1 << M2_E11) == m2f2.full_mask()


def test_all_ideals_of_zmod12_one_per_divisor(z12):
    masks = set(all_ideal_masks(z12))
    assert masks == {ideal_of_multiples(z12, d) for d in (1, 2, 3, 4, 6, 12)}
    assert len(masks) == 6


def test_all_ideals_matches_subgroup_scan_oracle(z6, t2f2):
    for r in (z6, make_zmod(8), t2f2, make_gf(4)):
        assert all_ideal_masks(r) == all_ideal_masks_exhaustive(r)


def test_field_has_two_ideals():
    assert len(all_ideal_masks(make_gf(3))) == 2


def test_ideal_product_arithmetic(z12, t2f2):
    two = ideal_of_multiples(z12, 2)
    three = ideal_of_multiples(z12, 3)
    assert ideal_product_mask(z12, two, three) == ideal_of_multiples(z12, 6)
    assert ideal_product_mask(z12, two, 1) == 1
    j = ideal_closure_mask(t2f2, 1 << T2_E12)
    assert ideal_product_mask(t2f2, j, j) == 1


def _annihilators(r, tmask):
    """(left, right) annihilator of a set: what kills every member of it
    from the left (xt = 0), respectively from the right (tx = 0)."""
    left = right = r.full_mask()
    for t in range(r.order):
        if tmask >> t & 1:
            ass_l, ass_r = vanishing_masks(r, 1 << t)
            left &= ass_r
            right &= ass_l
    return left, right


def test_annihilators(z12, sample_rings):
    assert _annihilators(z12, mask_of([z12.one]))[0] == 1
    assert _annihilators(z12, mask_of([4]))[0] == mask_of([0, 3, 6, 9])
    for r in sample_rings:
        if not is_semiprime_ring(r):
            continue
        for m in all_ideal_masks(r):
            if m == 1:
                continue
            left, right = _annihilators(r, m)
            assert left == right


def test_classification_examples(z12, m2f2):
    zero_m2 = prime_flags(m2f2, 1)
    assert zero_m2.is_prime and not zero_m2.is_completely_prime
    two = prime_flags(z12, ideal_of_multiples(z12, 2))
    assert two.is_completely_prime
    pf = make_product(make_gf(2), make_gf(3))
    maximal = mask_of(x for x in range(pf.order) if x < 3)  # gf(2) slot = 0
    assert prime_flags(pf, maximal).is_prime


def test_the_whole_ring_carries_no_prime_flag(sample_rings):
    # primes are proper, so callers may pass every ideal unguarded
    for r in sample_rings:
        assert prime_flags(r, r.full_mask()) == PrimeReport(False, False, False)
        assert r.full_mask() not in prime_masks(r)


def test_classification_monotonicity(sample_rings):
    for r in sample_rings:
        for m in all_ideal_masks(r):
            if m == r.full_mask():
                continue
            rep = prime_flags(r, m)
            assert not rep.is_completely_prime or rep.is_prime
            assert not rep.is_prime or rep.is_semiprime_ideal


def test_elementwise_prime_test_matches_lattice_oracle(sample_rings):
    for r in sample_rings:
        if r.order > 8:
            continue
        for m in all_ideal_masks(r):
            if m == r.full_mask():
                continue
            assert prime_flags(r, m).is_prime == is_prime_lattice_test(r, m)


def test_min_primes_examples(z12, m2f2):
    assert set(min_prime_masks(z12)) == {mask_of([0, 2, 4, 6, 8, 10]), mask_of([0, 3, 6, 9])}
    assert min_prime_masks(m2f2) == (1,)
    assert min_prime_masks(make_gf(3)) == (1,)


def test_min_primes_over_cross_checks_through_the_factor(z12):
    four = ideal_of_multiples(z12, 4)
    assert min_prime_masks_over(z12, four) == (mask_of([0, 2, 4, 6, 8, 10]),)


def test_prime_radical_two_routes(z12, t2f2, sample_rings):
    assert prime_radical_mask(z12) == mask_of([0, 6])
    assert prime_radical_mask(t2f2) == mask_of([0, T2_E12])
    for r in sample_rings:
        assert prime_radical_mask(r) == strongly_nilpotent_mask(r)


def test_semiprime_flags(z6, z12):
    assert is_semiprime_ring(z6)
    assert not is_semiprime_ring(z12)
    assert is_nilpotent_ideal(z12, 1)
    assert nilpotency_index(z12, prime_radical_mask(z12)) == 2


def test_prime_rich_with_exponent_evidence(z12, sample_rings):
    assert is_prime_rich(z12)
    assert not any(prime_rich_violation(z12, m) for m in all_ideal_masks(z12)[:-1])
    assert min_prime_exponent(z12, 1) == 2  # (2)(3) = (6), and (6)^2 = 0
    for r in sample_rings:
        # no violation: the three conditions agree and every exponent is at most |R|
        assert is_prime_rich(r)
        assert not any(prime_rich_violation(r, m) for m in all_ideal_masks(r)[:-1])
    assert min_prime_exponent(make_gf(4), 1) == 1


def test_irredundant_families(z6):
    two = mask_of([0, 2, 4])
    three = mask_of([0, 3])
    assert is_irredundant_masks(z6, [two, three])
    assert is_irredundant_masks(make_gf(3), [1])
    assert not is_irredundant_masks(z6, [two, three, two & three])
    assert not is_irredundant_masks(z6, [two])
