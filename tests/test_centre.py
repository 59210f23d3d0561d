import pytest

from orespec.centre import (
    central_localize,
    central_mult_set,
    central_regulars_miss_min_primes,
    central_regulars_stay_regular,
    centre_ring,
    check_pierce,
    rho,
    rho_criteria,
)
from orespec.checks import check_centre_decomposition, decide
from orespec.finring import RingError, content, make_gf, make_product, make_zmod, mask_of
from orespec.harness import CorpusConfig
from orespec.ideals import is_semiprime_ring, min_prime_masks, prime_masks
from orespec.localization import localize


def test_centre_of_commutative_ring_is_itself(z6):
    iota = centre_ring(z6)
    assert iota.source.order == z6.order
    assert content(iota.source) == content(z6)


def test_centre_of_matrix_ring_is_the_prime_field(m2f2):
    iota = centre_ring(m2f2)
    assert iota.source.order == 2
    assert iota.verify() is None


def test_centre_of_product_is_the_product_of_centres(t2f2):
    p = make_product(make_zmod(3), t2f2, cap=None)
    iota = centre_ring(p)
    assert iota.source.order == 3 * centre_ring(t2f2).source.order


def test_restriction_lands_in_central_primes(m2f2, t2f2, sample_rings):
    for r in sample_rings:
        iota = centre_ring(r)
        for pm in min_prime_masks(r):
            assert iota.preimage_mask(pm) in prime_masks(iota.source)


def _min_table(r):
    """rho restricted to min(R): (minimal prime mask, restricted mask) pairs."""
    mins = set(min_prime_masks(r))
    return tuple((pm, qm) for pm, qm in rho(r) if pm in mins)


def test_rho_tables(z6, m2f2, t2f2):
    # well defined on min(R) and onto the minimal primes of the centre
    assert rho_criteria(z6)[2:] == (True, True)
    assert _min_table(m2f2) == ((1, 1),)  # (0) restricts to (0)
    # both minimal primes meet the two-element centre in zero only
    assert {qm for _, qm in _min_table(t2f2)} == {1}
    assert rho_criteria(t2f2)[2:] == (True, True)


def test_rho_criteria_agreement(z6, m2f2, sample_rings):
    for r in (z6, m2f2):
        assert rho_criteria(r) == (True,) * 4
    for r in sample_rings:
        if is_semiprime_ring(r):
            criteria = rho_criteria(r)
            assert len(set(criteria)) == 1, r.label
            assert criteria[:2] == (central_regulars_stay_regular(r),
                                    central_regulars_miss_min_primes(r))


def test_central_localization_of_zmod6(z6):
    q = mask_of([0, 2, 4])
    assert central_localize(z6, q) is None
    s = central_mult_set(z6, q)
    assert set(s.members()) == {1, 3, 5}
    assert localize(z6, s).target.order == 2
    # q is hit by a minimal prime, so its fiber is non-empty
    assert q in {qm for _, qm in _min_table(z6)}


def test_central_localization_refuses_a_non_prime_of_the_centre(z6):
    # zmod(6) is its own centre, and its zero ideal is not prime
    with pytest.raises(RingError, match="^central localization requires a prime of the centre$"):
        central_localize(z6, 1 << z6.zero)


def test_central_localization_at_zero_of_a_field():
    f = make_gf(4)
    q = 1 << centre_ring(f).source.zero
    assert central_localize(f, q) is None
    assert localize(f, central_mult_set(f, q)).target.order == f.order
    assert q in {qm for _, qm in rho(f)}


def test_central_localization_of_matrix_ring(m2f2):
    q = 1 << centre_ring(m2f2).source.zero
    assert central_localize(m2f2, q) is None
    assert localize(m2f2, central_mult_set(m2f2, q)).target.order == m2f2.order
    assert [pm for pm, qm in rho(m2f2) if qm == q] == [1]


def test_pierce_decomposition_examples(z6):
    # commutative rings: None means the decomposition map is bijective
    for r, factors in ((z6, 2), (make_product(make_gf(2), make_gf(3)), 2), (make_gf(4), 1)):
        assert is_semiprime_ring(r) and central_regulars_stay_regular(r)
        assert check_pierce(r) is None
        assert len(min_prime_masks(centre_ring(r).source)) == factors


def test_pierce_not_applicable_off_semiprime(z12):
    assert not is_semiprime_ring(z12)
    assert decide(check_centre_decomposition(z12, CorpusConfig())).status == "na"
