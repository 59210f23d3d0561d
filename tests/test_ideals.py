import pytest

from orespec.finring import (
    bits,
    make_gf,
    make_product,
    make_zmod,
    mask_of,
)
from orespec.ideals import (
    Ideal,
    all_ideal_masks,
    all_ideal_masks_exhaustive,
    all_ideals,
    classify_ideal,
    ideal_generated_by,
    ideal_intersection,
    ideal_product,
    is_irredundant,
    is_nilpotent_ideal,
    is_prime_lattice_test,
    is_prime_rich,
    is_semiprime_ring,
    left_ann,
    min_primes,
    min_prime_exponent,
    min_primes_over,
    nilpotency_index,
    prime_radical,
    prime_radical_mask,
    prime_rich_violation,
    right_ann,
    strongly_nilpotent_mask,
    zero_ideal,
)

M2_E11 = 1  # [[1,0],[0,0]] in mat(2, gf(2)) row-major little-endian digits
T2_E12 = 2


def ideal_of_multiples(r, d):
    return mask_of(x for x in range(r.order) if x % d == 0)


def test_generated_by_zero_is_zero(z12):
    assert ideal_generated_by(z12, [0]).mask == 1


def test_generated_in_zmod12_matches_divisor_oracle(z12):
    assert set(ideal_generated_by(z12, [8]).members()) == {0, 4, 8}
    for g in range(1, 12):
        import math

        d = math.gcd(g, 12)
        assert ideal_generated_by(z12, [g]).mask == ideal_of_multiples(z12, d)


def test_matrix_ring_is_simple(m2f2):
    assert ideal_generated_by(m2f2, [M2_E11]).is_full()


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
    two = Ideal(z12, ideal_of_multiples(z12, 2))
    three = Ideal(z12, ideal_of_multiples(z12, 3))
    assert ideal_product(two, three).mask == ideal_of_multiples(z12, 6)
    assert ideal_product(two, zero_ideal(z12)).is_zero()
    j = ideal_generated_by(t2f2, [T2_E12])
    assert ideal_product(j, j).is_zero()
    assert ideal_intersection(two, three).mask == ideal_of_multiples(z12, 6)


def test_annihilators(z12, sample_rings):
    assert left_ann(z12, mask_of([z12.one])).is_zero()
    assert set(left_ann(z12, mask_of([4])).members()) == {0, 3, 6, 9}
    for r in sample_rings:
        if not is_semiprime_ring(r):
            continue
        for m in all_ideal_masks(r):
            if m == 1:
                continue
            assert left_ann(r, m).mask == right_ann(r, m).mask


def test_classification_examples(z12, m2f2):
    zero_m2 = classify_ideal(zero_ideal(m2f2))
    assert zero_m2.is_prime and not zero_m2.is_completely_prime
    two = classify_ideal(Ideal(z12, ideal_of_multiples(z12, 2)))
    assert two.is_completely_prime
    pf = make_product(make_gf(2), make_gf(3))
    maximal = Ideal(pf, mask_of(x for x in range(pf.order) if x < 3))  # gf(2) slot = 0
    assert classify_ideal(maximal).is_prime


def test_classification_monotonicity(sample_rings):
    for r in sample_rings:
        for m in all_ideal_masks(r):
            if m == r.full_mask():
                continue
            rep = classify_ideal(Ideal(r, m))
            assert not rep.is_completely_prime or rep.is_prime
            assert not rep.is_prime or rep.is_semiprime_ideal


def test_elementwise_prime_test_matches_lattice_oracle(sample_rings):
    for r in sample_rings:
        if r.order > 8:
            continue
        for m in all_ideal_masks(r):
            if m == r.full_mask():
                continue
            p = Ideal(r, m)
            assert classify_ideal(p).is_prime == is_prime_lattice_test(p)


def test_min_primes_examples(z12, m2f2):
    assert {frozenset(p.members()) for p in min_primes(z12)} == {
        frozenset({0, 2, 4, 6, 8, 10}),
        frozenset({0, 3, 6, 9}),
    }
    assert [p.mask for p in min_primes(m2f2)] == [1]
    assert [p.mask for p in min_primes(make_gf(3))] == [1]


def test_min_primes_over_cross_checks_through_the_factor(z12):
    four = Ideal(z12, ideal_of_multiples(z12, 4))
    over = min_primes_over(z12, four)
    assert {frozenset(p.members()) for p in over} == {frozenset({0, 2, 4, 6, 8, 10})}


def test_prime_radical_two_routes(z12, t2f2, sample_rings):
    assert set(prime_radical(z12).members()) == {0, 6}
    assert set(prime_radical(t2f2).members()) == {0, T2_E12}
    for r in sample_rings:
        assert prime_radical_mask(r) == strongly_nilpotent_mask(r)


def test_semiprime_flags(z6, z12):
    assert is_semiprime_ring(z6)
    assert not is_semiprime_ring(z12)
    assert is_nilpotent_ideal(zero_ideal(z12))
    assert nilpotency_index(prime_radical(z12)) == 2


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
    two = Ideal(z6, mask_of([0, 2, 4]))
    three = Ideal(z6, mask_of([0, 3]))
    assert is_irredundant([two, three])
    assert is_irredundant([zero_ideal(make_gf(3))])
    assert not is_irredundant([two, three, ideal_intersection(two, three)])
    assert not is_irredundant([two])
