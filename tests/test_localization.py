import dataclasses
import itertools

import pytest

from orespec import checks, localization
from orespec.checks import decide
from orespec.dsl import evaluate, parse_ring_expr
from orespec.finring import (
    RingError,
    additive_span,
    bits,
    canonical,
    inverse_table,
    make_gf,
    make_quotient,
    mask_of,
    normal_mask,
    regular_mask,
    units_mask,
)
from orespec.harness import CorpusConfig, class_heads
from orespec.ideals import LEFT, all_ideal_masks, ideal_closure_mask, ideal_sum_mask
from orespec.localization import (
    EXHAUSTIVE_MULT_ORDER,
    MultSet,
    ZeroAbsorbedError,
    ass_l_realizable_masks,
    check_A11_equivalence,
    check_epimorphic_den_b14,
    classify_set,
    close_multiplicative,
    closure_with_witness,
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
    submonoid_levels,
    t_l,
    vanishing_masks,
)

from test_fail_paths import LIES, _lie

T2_E11 = 1
T2_UNIT_UPPER = 7  # [[1,1],[0,1]]


def test_multiplicative_closures(z6):
    assert set(close_multiplicative(z6, mask_of([2])).members()) == {1, 2, 4}
    assert set(close_multiplicative(z6, 0).members()) == {1}
    assert set(close_multiplicative(z6, mask_of([3])).members()) == {1, 3}


def test_closure_reports_a_zero_witness(z6):
    with pytest.raises(ZeroAbsorbedError) as exc:
        close_multiplicative(z6, mask_of([2, 3]))
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
    cls = classify_set(close_multiplicative(z6, mask_of([2])))
    assert set(bits(cls.ass_l_mask)) == {0, 3}
    cls = classify_set(close_multiplicative(z6, mask_of([3])))
    assert set(bits(cls.ass_l_mask)) == {0, 2, 4}


def test_regular_den_is_a_set_of_regular_elements(z6, t2f2):
    assert regular_den(z6, classify_set(close_multiplicative(z6, mask_of([5]))))
    assert not regular_den(z6, classify_set(close_multiplicative(z6, mask_of([2]))))  # ass_l = {0, 3}
    for r in (z6, t2f2):
        for s in left_denominator_sets(r):
            assert regular_den(r, classify_set(s)) == (s.mask & ~regular_mask(r) == 0)


def test_localize_examples(z6):
    s = close_multiplicative(z6, mask_of([2]))
    sigma = localize(z6, s)
    assert sigma.target.order == 3
    assert sigma.kernel_mask() == classify_set(s).ass_l_mask
    two = sigma(2)
    assert any(sigma.target.mul[two][y] == sigma.target.one for y in sigma.target.elements())
    assert localize(z6, close_multiplicative(z6, mask_of([3]))).target.order == 2


def test_localizing_at_units_changes_nothing(z12):
    sigma = localize(z12, largest_regular_set(z12))
    assert sigma.target.order == z12.order
    assert sigma.is_bijective()


def test_localized_ideals(z6):
    sigma = localize(z6, close_multiplicative(z6, mask_of([2])))
    assert localize_left_ideal(sigma, 1).mask == 1
    three = ideal_closure_mask(z6, 1 << 3)
    li = localize_left_ideal(sigma, three)
    assert li.mask == 1 and li.two_sided
    assert localize_left_ideal(sigma, three) is li  # memoised on the factor map
    sigma13 = localize(z6, close_multiplicative(z6, mask_of([3])))
    assert localize_left_ideal(sigma13, ideal_closure_mask(z6, 1 << 2)).mask == 1


def test_five_way_criterion_on_commutative_and_triangular(z6, t2f2):
    for r in (z6, t2f2):
        for s in left_denominator_sets(r):
            sigma = localize(r, s)
            for m in all_ideal_masks(r):
                assert check_A11_equivalence(sigma, s.mask, m) is None
    # the whole ring is accepted by convention, and its localization is two-sided
    s = close_multiplicative(z6, mask_of([2]))
    sigma = localize(z6, s)
    full = z6.full_mask()
    assert check_A11_equivalence(sigma, s.mask, full) is None
    assert localize_left_ideal(sigma, full).two_sided


def test_min_RS_and_prime_structure(z6):
    s24 = close_multiplicative(z6, mask_of([2]))
    assert min_RS(z6, s24) == [mask_of([0, 3])]
    s13 = close_multiplicative(z6, mask_of([3]))
    assert min_RS(z6, s13) == [mask_of([0, 2, 4])]
    sigma = localize(z6, s24)
    assert respects_prime_structure(sigma)
    assert set(min_RS(z6, s24)) <= set(min_RS_id(sigma, s24))


def test_a_localization_is_the_factor_map_at_its_vanishing_ideal(corpus_tables):
    # make_quotient is memoised, so the sets with one vanishing ideal share
    # one sigma, and with it their localized ideals
    tables = [r for _, r in corpus_tables]
    heads = set(class_heads(tables))
    sets = sigmas = 0
    for i, r in enumerate(tables):
        dens = left_denominator_sets(r)
        for s in dens:
            sigma = localize(r, s)
            assert sigma is make_quotient(r, classify_set(s).ass_l_mask)[1], (r.label, s)
        if i in heads:
            sets += len(dens)
            sigmas += len({id(localize(r, s)) for s in dens})
    assert len(heads) == 30 and (sets, sigmas) == (417, 75)


def test_localize_normal_examples(z12, t2f2):
    sigma = localize_normal(z12, mask_of([2]))
    s = close_multiplicative(z12, mask_of([2]))
    assert set(s.members()) == {1, 2, 4, 8}
    assert sigma.kernel_mask() == mask_of([0, 3, 6, 9])
    # a central generator reduces to the one-sided vanishing ideal
    assert sigma.kernel_mask() == classify_set(s).ass_l_mask
    sigma_u = localize_normal(t2f2, mask_of([T2_UNIT_UPPER]))
    assert sigma_u.kernel_mask() == 1 << t2f2.zero and sigma_u.target.order == t2f2.order


def test_localize_normal_is_memoised_per_generator_mask(z12):
    sigma = localize_normal(z12, 1 << 2)
    assert localize_normal(z12, 1 << 2) is sigma


def test_localize_normal_rejects_non_normal_generators(t2f2):
    with pytest.raises(RingError):
        localize_normal(t2f2, mask_of([T2_E11]))


def test_largest_sets(z12, z6):
    assert set(largest_regular_set(z12).members()) == {1, 5, 7, 11}
    p2 = mask_of([0, 2, 4])
    tl = t_l(z6, p2)
    assert set(tl.members()) == {1, 3, 5}
    assert vanishing_masks(z6, tl.mask)[0] & ~p2 == 0
    prime = make_gf(4)
    assert t_l(prime, 1).mask == units_mask(prime)
    assert t_l(prime, 1).mask == largest_regular_set(prime).mask


def test_t_l_refuses_an_ideal_that_is_not_prime(z6):
    with pytest.raises(RingError, match="^t_l is defined at prime ideals$"):
        t_l(z6, 1 << z6.zero)  # 2 * 3 = 0 in zmod(6)


def test_largest_set_assoc_and_unrealizable_ideals(z6, z12):
    three = mask_of([0, 3])
    smax = largest_set_assoc(z6, three)
    assert set(smax.members()) == {1, 2, 4, 5}
    assert classify_set(smax).ass_l_mask == three
    two = mask_of([0, 2, 4, 6, 8, 10])
    assert two not in ass_l_realizable_masks(z12)
    with pytest.raises(RingError,
                       match=r"ideal \[0, 2, 4, 6, 8, 10\] is not an attained vanishing ideal"):
        largest_set_assoc(z12, two)


def test_epimorphic_image_criterion(z12):
    s = largest_regular_set(z12)
    sigma = localize(z12, s)
    four = ideal_closure_mask(z12, 1 << 4)
    assert sigma.kernel_mask() & ~four == 0 and four != z12.full_mask()  # ass(S) <= b < R
    assert check_epimorphic_den_b14(sigma, s.mask, four)
    # the image of S in R/b is a zero-vanishing denominator set
    q, hom = make_quotient(z12, four)
    cls = classify_set(MultSet(q, hom.push_mask(s.mask)))
    assert cls.left_den and cls.ass_l_mask == 1 << q.zero


# ---------------------------------------------------------------------------
# the submonoid enumeration and the A11 criteria against the per-element
# sweeps they replace


def _zero_free_closures(r, seeds):
    found = set()
    for gens in seeds:
        mask, witness = closure_with_witness(r, gens)
        if witness is None:
            found.add(mask)
    return canonical(found)


def _closures_of_all_subsets(r):
    """The zero-free closures of all subsets of nonzero elements, sorted by
    (size, mask): the subset sweep that closure extension replaces."""
    seeds = [0]
    for x in r.elements():
        if x != r.zero:
            seeds += [m | 1 << x for m in seeds]
    return _zero_free_closures(r, seeds)


def _closures_of_at_most_two(r, pool):
    """The zero-free closures of the empty set, of each pool element and of
    each pair of them, sorted by (size, mask)."""
    seeds = [0] + [1 << x for x in pool]
    seeds += [1 << x | 1 << y for x, y in itertools.combinations(pool, 2)]
    return _zero_free_closures(r, seeds)


def _exhaustive_tables(corpus_tables):
    return [r for _, r in corpus_tables if r.order <= EXHAUSTIVE_MULT_ORDER]


def test_closure_extension_lists_the_subset_closures_in_order(corpus_tables):
    tables = _exhaustive_tables(corpus_tables)
    assert len(tables) == 28
    for r in tables:
        assert mult_set_masks(r) == _closures_of_all_subsets(r), r.label


@pytest.mark.parametrize("expr, count", [
    ("prod(zmod(2), tri(2, gf(2)))", 93),
    ("prod(prod(gf(2), gf(2)), prod(gf(2), gf(2)))", 209),
])
def test_closure_extension_at_order_16(expr, count):
    r = evaluate(parse_ring_expr(expr), 16)
    sets = mult_set_masks(r, 16)
    assert len(sets) == count
    assert sets == _closures_of_all_subsets(r)


def test_the_depth_two_search_lists_the_closures_of_at_most_two_elements(corpus_tables):
    for _, r in corpus_tables:
        nonzero = r.full_mask() & ~(1 << r.zero)
        normal = normal_mask(r) & ~(1 << r.zero)
        for pool in (nonzero, normal):
            assert canonical(submonoid_levels(r, pool, 2)) == \
                _closures_of_at_most_two(r, bits(pool)), r.label
        assert checks._normal_set_masks(r) == _closures_of_at_most_two(r, bits(normal))


def test_above_the_exhaustive_order_only_pairs_are_closed(corpus_tables):
    tables = [r for _, r in corpus_tables if r.order > EXHAUSTIVE_MULT_ORDER]
    assert len(tables) == 15
    for r in tables:
        nonzero = [x for x in r.elements() if x != r.zero]
        assert mult_set_masks(r) == _closures_of_at_most_two(r, nonzero), r.label


def test_closure_extension_closes_at_most_n_minus_1_times_per_submonoid(
        corpus_tables, monkeypatch):
    calls = 0

    def counting(r, gens, closed=0):
        nonlocal calls
        calls += 1
        return closure_with_witness(r, gens, closed)

    monkeypatch.setattr(localization, "closure_with_witness", counting)
    for r in _exhaustive_tables(corpus_tables):
        calls = 0
        # the search itself, not the ring's memoised one
        nonzero = r.full_mask() & ~(1 << r.zero)
        sets = canonical(submonoid_levels.__wrapped__(r, nonzero, None))
        assert sets == mult_set_masks(r, EXHAUSTIVE_MULT_ORDER), r.label
        assert 0 < calls <= len(sets) * (r.order - 1) + 1, r.label


def test_a11_localizes_each_ideal_once_per_vanishing_ideal(monkeypatch):
    # every set with the same vanishing ideal shares one factor map, which
    # holds the localized ideals
    calls = 0
    right_absorbed = localization._right_absorbed

    def counting(t, mask):
        nonlocal calls
        calls += 1
        return right_absorbed(t, mask)

    monkeypatch.setattr(localization, "_right_absorbed", counting)
    r = evaluate(parse_ring_expr("prod(zmod(2), tri(2, gf(2)))"))
    assert decide(checks.check_a11(r, CorpusConfig())).status == "pass"
    ideals = [b for b in all_ideal_masks(r) if b != r.full_mask()]
    dens = left_denominator_sets(r)
    distinct = {(classify_set(s).ass_l_mask, b) for s in dens for b in ideals}
    assert calls == len(distinct) < len(dens) * len(ideals)


def _per_pair_push_condition(r, smembers, target_mask):
    for x in r.elements():
        row = r.mul[x]
        if any(target_mask >> row[s] & 1 for s in smembers):
            if not any(target_mask >> r.mul[s][x] & 1 for s in smembers):
                return False
    return True


def _per_pair_unit_inverses(sigma, smask, ideal_mask, bmask):
    t = sigma.target
    inv = inverse_table(t)
    return all(
        ideal_mask >> t.mul[sigma(x)][inv[sigma(s)]] & 1
        for x in bits(bmask) for s in bits(smask)
    )


def _pushes_into_pulls(r, smask, target_mask):
    # condition (3)/(4) as check_A11_equivalence evaluates it
    slots = localization._product_slots(r)
    return localization._pushes_into_pulls(slots, *localization.set_rows(r, smask), target_mask)


def _absorbs_unit_inverses(sigma, smask, ideal_mask, bmask):
    # condition (2) as check_A11_equivalence evaluates it
    unit_inverses = localization._a11_reads(sigma, smask)[0]
    return localization._absorbs_unit_inverses(sigma, unit_inverses, ideal_mask, bmask)


def test_a11_conditions_2_to_4_match_the_per_pair_loops(corpus_tables):
    outcomes = set()  # both verdicts must occur, or the comparison shows nothing
    for _, r in corpus_tables:
        ideals = all_ideal_masks(r)
        # conditions (3) and (4) on every ideal, for every submonoid
        for smask in mult_set_masks(r):
            members = list(bits(smask))
            for b in ideals:
                got = _pushes_into_pulls(r, smask, b)
                assert got == _per_pair_push_condition(r, members, b), (r.label, smask, b)
                outcomes.add(("push", got))
        for s in left_denominator_sets(r):
            sigma = localize(r, s)
            members = s.members()
            t = sigma.target
            left_ideals = {ideal_closure_mask(t, 1 << x, LEFT) for x in t.elements()}
            for b in ideals:
                ab = ideal_sum_mask(r, sigma.kernel_mask(), b)
                assert _pushes_into_pulls(r, s.mask, ab) == \
                    _per_pair_push_condition(r, members, ab), (r.label, s, b)
                # condition (2) with the localized ideal and the ideals of the
                # target, every principal left ideal among them
                for j in (localize_left_ideal(sigma, b).mask, *all_ideal_masks(t), *left_ideals):
                    got = _absorbs_unit_inverses(sigma, s.mask, j, b)
                    assert got == _per_pair_unit_inverses(sigma, s.mask, j, b), (r.label, s, b, j)
                    outcomes.add(("absorb", got))
            # on a two-sided b the inverses change nothing, so (2) also runs on
            # single elements, where they do
            for x in r.elements():
                for j in left_ideals:
                    got = _absorbs_unit_inverses(sigma, s.mask, j, 1 << x)
                    assert got == _per_pair_unit_inverses(sigma, s.mask, j, 1 << x), \
                        (r.label, s, x, j)
    assert outcomes == {(c, v) for c in ("push", "absorb") for v in (True, False)}


def _per_member_vacuity(r, cfg):
    """aA11Sep23 with the unit-order chain run once per member of S."""
    for s, sigma, m in checks._localized(r, checks._dens(r, cfg), all_ideal_masks(r)):
        if m == r.full_mask():
            continue
        t = sigma.target
        inv = inverse_table(t)
        li = checks.localize_left_ideal(sigma, m)
        for sm in s.members():
            u = inv[sigma(sm)]
            order_u, power = 1, u
            while power != t.one:
                power = t.mul[power][u]
                order_u += 1
            chain = li.mask
            shift = li.mask
            for _ in range(order_u):
                shift = ideal_closure_mask(t, mask_of(t.mul[x][u] for x in bits(shift)), LEFT)
                chain = additive_span(t, chain | shift)
            if li.two_sided and chain != li.mask:
                yield "a two-sided image absorbs its chain", f"s={sm} b={list(bits(m))}"
        if not li.two_sided:
            yield "stabilized chains force a two-sided image", f"b={list(bits(m))} S={s.members()}"
        yield


def _grow_by_a_one_sided_ideal(fn):
    # where sigma has a kernel, so that members of S can share an image, the
    # localized ideal grows by the first principal left ideal of the target
    # that makes it one-sided, and is still flagged two-sided
    def lying(sigma, m):
        rep = fn(sigma, m)
        t = sigma.target
        if sigma.kernel_mask() == 1 << sigma.source.zero:
            return rep
        for x in t.elements():
            grown = ideal_closure_mask(t, rep.mask | 1 << x, LEFT)
            if ideal_closure_mask(t, grown) != grown:
                return dataclasses.replace(rep, mask=grown)
        return rep
    return lying


TWO_SIDED_LIE = next(case.values[0] for case in LIES if case.id == "two_sided")


@pytest.mark.parametrize("lies, clause", [
    pytest.param([], None, id="honest"),
    pytest.param(TWO_SIDED_LIE, "stabilized chains force a two-sided image", id="two_sided"),
    pytest.param([(checks, "localize_left_ideal", _grow_by_a_one_sided_ideal)],
                 "a two-sided image absorbs its chain", id="one_sided"),
])
def test_a11_vacuity_per_unit_matches_per_member(corpus_tables, monkeypatch, lies, clause):
    _lie(monkeypatch, lies)
    cfg = CorpusConfig()
    clauses, details = set(), set()
    for _, r in corpus_tables:
        outcome = decide(checks.check_a11_vacuity(r, cfg))
        assert outcome == decide(_per_member_vacuity(r, cfg)), r.label
        # one set at a time, so that every set's first failure is compared
        for s in checks._dens(r, cfg):
            with monkeypatch.context() as one_set:
                one_set.setattr(checks, "_dens", lambda r, cfg, s=s: [s])
                outcome = decide(checks.check_a11_vacuity(r, cfg))
                assert outcome == decide(_per_member_vacuity(r, cfg)), (r.label, s)
            if outcome.status == "fail":
                clauses.add(outcome.clause)
                details.add((r.label, tuple(s.members()), outcome.detail))
    assert clauses == ({clause} if clause else set())
    if clause == "a two-sided image absorbs its chain":
        # sigma(7) = sigma(15) here: the first member of S with that image is named
        assert ("prod(zmod(2), tri(2, gf(2)))", (5, 7, 13, 15), "s=7 b=[0]") in details
