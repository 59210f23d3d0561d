import pytest

from orespec.finring import bits, make_gf, make_quotient, mask_of, regular_mask, units_mask
from orespec.ideals import all_ideal_masks, ideal_closure_mask
from orespec.localization import (
    MultSet,
    NotInAssError,
    ZeroAbsorbedError,
    ass_l_realizable_masks,
    check_A11_equivalence,
    check_epimorphic_den_b14,
    classify_set,
    close_multiplicative,
    largest_regular_set,
    largest_set_assoc,
    left_denominator_sets,
    localize,
    localize_left_ideal,
    localize_normal,
    min_RS,
    min_RS_id,
    mult_set_masks,
    regular_den,
    respects_prime_structure,
    t_l,
    vanishing_masks,
)

T2_E11 = 1
T2_UNIT_UPPER = 7  # [[1,1],[0,1]]


def test_multiplicative_closures(z6):
    assert set(close_multiplicative(z6, [2]).members()) == {1, 2, 4}
    assert set(close_multiplicative(z6, []).members()) == {1}
    assert set(close_multiplicative(z6, [3]).members()) == {1, 3}


def test_closure_reports_a_zero_witness(z6):
    with pytest.raises(ZeroAbsorbedError) as exc:
        close_multiplicative(z6, [2, 3])
    s, t = exc.value.witness
    assert z6.mul[s][t] == 0


def test_enumeration_is_the_full_submonoid_list(z6):
    enumerated = set(mult_set_masks(z6))
    brute = set()
    for code in range(1 << 6):
        if code & 1 or not code >> 1 & 1:
            continue  # must omit 0 and contain 1
        if all(code >> z6.mul[a][b] & 1 for a in bits(code) for b in bits(code)):
            brute.add(code)
    assert enumerated == brute
    assert mask_of([1]) in enumerated
    for want in ([1, 5], [1, 2, 4], [1, 3], [1, 4], [1, 3, 5]):
        assert mask_of(want) in enumerated


def test_field_mult_sets_live_in_the_unit_group():
    f = make_gf(4)
    for m in mult_set_masks(f):
        assert m & ~units_mask(f) == 0


def test_commutative_sets_are_two_sided_denominators(z6):
    for m in mult_set_masks(z6):
        cls = classify_set(MultSet(z6, m))
        assert cls.left_ore and cls.right_ore and cls.left_den and cls.right_den


def test_classification_vanishing_ideals(z6):
    cls = classify_set(close_multiplicative(z6, [2]))
    assert set(bits(cls.ass_l_mask)) == {0, 3}
    cls = classify_set(close_multiplicative(z6, [3]))
    assert set(bits(cls.ass_l_mask)) == {0, 2, 4}


def test_regular_den_is_a_set_of_regular_elements(z6, t2f2):
    assert regular_den(z6, classify_set(close_multiplicative(z6, [5])))
    assert not regular_den(z6, classify_set(close_multiplicative(z6, [2])))  # ass_l = {0, 3}
    for r in (z6, t2f2):
        for s in left_denominator_sets(r):
            assert regular_den(r, classify_set(s)) == (s.mask & ~regular_mask(r) == 0)


def test_localize_examples(z6):
    loc = localize(z6, close_multiplicative(z6, [2]))
    assert loc.target.order == 3
    assert loc.sigma.kernel_mask() == loc.ass_mask
    two = loc.sigma(2)
    assert any(loc.target.mul[two][y] == loc.target.one for y in loc.target.elements())
    assert localize(z6, close_multiplicative(z6, [3])).target.order == 2


def test_localizing_at_units_changes_nothing(z12):
    loc = localize(z12, largest_regular_set(z12))
    assert loc.target.order == z12.order
    assert loc.sigma.is_bijective()


def test_localized_ideals(z6):
    loc = localize(z6, close_multiplicative(z6, [2]))
    assert localize_left_ideal(loc, 1).mask == 1
    three = ideal_closure_mask(z6, 1 << 3)
    li = localize_left_ideal(loc, three)
    assert li.mask == 1 and li.two_sided
    assert localize_left_ideal(loc, three) is li  # memoised on the localization
    loc13 = localize(z6, close_multiplicative(z6, [3]))
    assert localize_left_ideal(loc13, ideal_closure_mask(z6, 1 << 2)).mask == 1


def test_five_way_criterion_on_commutative_and_triangular(z6, t2f2):
    for r in (z6, t2f2):
        for s in left_denominator_sets(r):
            loc = localize(r, s)
            for m in all_ideal_masks(r):
                assert check_A11_equivalence(loc, m) is None
    # the whole ring is accepted by convention, and its localization is two-sided
    loc = localize(z6, close_multiplicative(z6, [2]))
    full = z6.full_mask()
    assert check_A11_equivalence(loc, full) is None
    assert localize_left_ideal(loc, full).two_sided


def test_min_RS_and_prime_structure(z6):
    s24 = close_multiplicative(z6, [2])
    assert min_RS(z6, s24) == [mask_of([0, 3])]
    s13 = close_multiplicative(z6, [3])
    assert min_RS(z6, s13) == [mask_of([0, 2, 4])]
    loc = localize(z6, s24)
    assert respects_prime_structure(loc)
    assert set(min_RS(z6, s24)) <= set(min_RS_id(loc))


def test_localize_normal_examples(z12, t2f2):
    loc = localize_normal(z12, [2])
    assert set(loc.mult_set.members()) == {1, 2, 4, 8}
    assert loc.ass_mask == mask_of([0, 3, 6, 9])
    # a central generator reduces to the one-sided vanishing ideal
    assert loc.ass_mask == classify_set(loc.mult_set).ass_l_mask
    loc_u = localize_normal(t2f2, [T2_UNIT_UPPER])
    assert loc_u.ass_mask == 1 << t2f2.zero and loc_u.target.order == t2f2.order


def test_localize_normal_is_memoised_per_generator_mask(z12):
    loc = localize_normal(z12, 1 << 2)
    assert localize_normal(z12, 1 << 2) is loc
    assert localize_normal(z12, [2]) is loc


def test_localize_normal_rejects_non_normal_generators(t2f2):
    from orespec.finring import RingError

    with pytest.raises(RingError):
        localize_normal(t2f2, [T2_E11])


def test_largest_sets(z12, z6):
    assert set(largest_regular_set(z12).members()) == {1, 5, 7, 11}
    p2 = mask_of([0, 2, 4])
    tl = t_l(z6, p2)
    assert set(tl.members()) == {1, 3, 5}
    assert vanishing_masks(z6, tl.mask)[0] & ~p2 == 0
    prime = make_gf(4)
    assert t_l(prime, 1).mask == units_mask(prime)
    assert t_l(prime, 1).mask == largest_regular_set(prime).mask


def test_largest_set_assoc_and_unrealizable_ideals(z6, z12):
    three = mask_of([0, 3])
    smax = largest_set_assoc(z6, three)
    assert set(smax.members()) == {1, 2, 4, 5}
    assert classify_set(smax).ass_l_mask == three
    two = mask_of([0, 2, 4, 6, 8, 10])
    assert two not in ass_l_realizable_masks(z12)
    with pytest.raises(NotInAssError):
        largest_set_assoc(z12, two)


def test_epimorphic_image_criterion(z12):
    s = largest_regular_set(z12)
    loc = localize(z12, s)
    four = ideal_closure_mask(z12, 1 << 4)
    assert loc.ass_mask & ~four == 0 and four != z12.full_mask()  # ass(S) <= b < R
    assert check_epimorphic_den_b14(loc, four)
    # the image of S in R/b is a zero-vanishing denominator set
    q, hom = make_quotient(z12, four)
    cls = classify_set(MultSet(q, hom.push_mask(s.mask)))
    assert cls.left_den and cls.ass_l_mask == 1 << q.zero
