import itertools
import math

import pytest
from hypothesis import given, strategies as st

from orespec.dsl import evaluate
from orespec.finring import (
    InvalidOrderError,
    RingHom,
    RingTable,
    SizeLimitError,
    audit_ring,
    bits,
    centre_mask,
    is_commutative,
    isomorphism,
    make_gf,
    make_matrix_ring,
    make_product,
    make_quotient,
    make_zmod,
    mask_of,
    normal_mask,
    regular_mask,
    units_mask,
)
from orespec.harness import CorpusConfig, build_corpus
from orespec.ideals import all_ideal_masks, ideal_closure_mask

# matrix-unit ids in tri(2, gf(2)): digits over slots (0,0),(0,1),(1,1)
T2_E12 = 2
T2_E11 = 1
T2_UNIT_UPPER = 7  # [[1,1],[0,1]]


def _content(r):
    return r.order, r.add, r.mul, r.zero, r.one


def test_zmod2_is_the_smallest_ring():
    r = make_zmod(2)
    assert r.order == 2
    assert r.add[1][1] == 0


def test_zmod_matches_modular_arithmetic():
    for n in (6, 12):
        r = make_zmod(n)
        for a in range(n):
            for b in range(n):
                assert r.add[a][b] == (a + b) % n
                assert r.mul[a][b] == (a * b) % n
    assert make_zmod(6).mul[2][3] == 0
    assert make_zmod(12).mul[4][3] == 0


def test_zmod_rejects_tiny_orders():
    with pytest.raises(InvalidOrderError):
        make_zmod(1)


def test_units_by_gcd_oracle():
    r = make_zmod(12)
    expected = {a for a in range(12) if math.gcd(a, 12) == 1}
    assert set(bits(units_mask(r))) == expected == {1, 5, 7, 11}


def test_units_of_a_field_are_all_nonzero():
    for q in (2, 3, 4):
        f = make_gf(q)
        assert set(bits(units_mask(f))) == set(range(1, q))


def test_gf4_is_a_field_with_frobenius_fixed_points():
    f = make_gf(4)
    assert audit_ring(f) is None
    assert is_commutative(f)
    # t^2 = t + 1 under the chosen encoding, so squaring permutes {t, t+1}
    assert f.mul[2][2] == 3
    assert f.mul[3][3] == 2


def test_matrix_ring_order_and_simplicity(m2f2):
    assert m2f2.order == 16
    assert len(all_ideal_masks(m2f2)) == 2


def test_matrix_ring_k1_reproduces_the_base():
    assert _content(make_matrix_ring(1, make_zmod(6))) == _content(make_zmod(6))


def test_matrix_ring_cap():
    with pytest.raises(SizeLimitError):
        make_matrix_ring(2, make_zmod(3))  # 3^4 = 81 > 16


def test_triangular_ring_basics(t2f2):
    assert t2f2.order == 8
    assert not is_commutative(t2f2)
    j = ideal_closure_mask(t2f2, 1 << T2_E12)
    assert set(bits(j)) == {0, T2_E12}
    # the strictly upper ideal squares to zero
    for a in bits(j):
        for b in bits(j):
            assert t2f2.mul[a][b] == 0


def test_product_is_crt_isomorphic_to_zmod6():
    p = make_product(make_zmod(2), make_zmod(3))
    crt = RingHom(make_zmod(6), p, tuple((x % 2) * 3 + (x % 3) for x in range(6)))
    assert crt.verify() is None
    assert crt.is_bijective()


def test_the_search_finds_the_crt_isomorphism():
    z6, p = make_zmod(6), make_product(make_zmod(3), make_gf(2))
    hom = isomorphism(z6, p)
    assert hom is not None and hom.is_bijective() and hom.verify() is None
    assert isomorphism(z6, make_zmod(6)).map == tuple(range(6))  # the only automorphism


def test_zmod4_gf4_and_z2_squared_are_pairwise_non_isomorphic():
    rings = [make_zmod(4), make_gf(4), make_product(make_zmod(2), make_zmod(2))]
    for a, b in itertools.permutations(rings, 2):
        assert isomorphism(a, b) is None, (a.label, b.label)
        # by brute force: none of the 24 bijections is a ring homomorphism
        assert not any(RingHom(a, b, perm).verify() is None
                       for perm in itertools.permutations(range(4))), (a.label, b.label)
    for r in rings:
        assert isomorphism(r, r).verify() is None


def test_product_projections_are_homomorphisms():
    # a make_product that built A x B^op kept every verdict of the corpus, so
    # only the projections pin the orientation of each factor
    cfg = CorpusConfig()
    products = [inst.expr for inst in build_corpus(cfg) if inst.expr.kind == "prod"]
    for e in products:
        p, a, b = (evaluate(x, cfg.order_cap) for x in (e, *e.subs))
        to_a = RingHom(p, a, tuple(x // b.order for x in p.elements()))
        to_b = RingHom(p, b, tuple(x % b.order for x in p.elements()))
        assert to_a.verify() is None and to_b.verify() is None, p.label
    assert len(products) == 33


def test_product_order_and_ideal_count():
    r = make_zmod(5)
    assert make_product(r, make_zmod(2), cap=None).order == 2 * r.order
    assert len(all_ideal_masks(make_product(make_gf(2), make_gf(2)))) == 4


def test_quotient_of_zmod12_by_6_is_zmod6(z12):
    six = ideal_closure_mask(z12, 1 << 6)
    q, hom = make_quotient(z12, six)
    assert q.order == 6
    assert hom.verify() is None
    canonical = RingHom(z12, make_zmod(6), tuple(x % 6 for x in range(12)))
    # same kernel, so the induced comparison map is an isomorphism
    assert hom.kernel_mask() == canonical.kernel_mask()
    assert _content(q) == _content(make_zmod(6))


def test_quotient_by_zero_is_the_ring(z12):
    q, hom = make_quotient(z12, 1 << z12.zero)
    assert _content(q) == _content(z12)
    assert hom.map == tuple(range(12))


def test_quotient_of_triangular_by_radical_is_commutative(t2f2):
    j = ideal_closure_mask(t2f2, 1 << T2_E12)
    q, _ = make_quotient(t2f2, j)
    assert q.order == 4
    assert is_commutative(q)


@pytest.mark.parametrize("n,a,b", [(12, 0b100010001, 0b10001000101), (8, 0b101, 0b10001)])
def test_quotient_composition(n, a, b):
    # (R/a)/(b/a) has the same tables as R/b whenever a is inside b
    r = make_zmod(n)
    amask = ideal_closure_mask(r, a & r.full_mask())
    bmask = ideal_closure_mask(r, (a | b) & r.full_mask())
    q1, h1 = make_quotient(r, amask)
    q2, h2 = make_quotient(q1, h1.push_mask(bmask))
    direct, hd = make_quotient(r, bmask)
    through = RingHom(r, q2, tuple(h2(h1(x)) for x in range(n)))
    assert through.kernel_mask() == hd.kernel_mask()
    table = {}
    for x in range(n):
        table[hd(x)] = through(x)
    iso = RingHom(direct, q2, tuple(table[i] for i in range(direct.order)))
    assert iso.verify() is None and iso.is_bijective()


def test_regular_elements_equal_units(sample_rings):
    for r in sample_rings:
        assert regular_mask(r) == units_mask(r)


def test_central_elements_are_normal(sample_rings):
    for r in sample_rings:
        assert centre_mask(r) & ~normal_mask(r) == 0
        assert normal_mask(r) >> r.zero & 1
        assert normal_mask(r) >> r.one & 1


def test_e12_is_normal_in_triangular(t2f2):
    assert normal_mask(t2f2) >> T2_E12 & 1
    assert not normal_mask(t2f2) >> T2_E11 & 1


def test_centre_of_commutative_ring_is_everything(z12):
    assert centre_mask(z12) == z12.full_mask()


def test_centre_of_matrix_and_triangular_rings(m2f2, t2f2):
    assert set(bits(centre_mask(m2f2))) == {m2f2.zero, m2f2.one}
    assert set(bits(centre_mask(t2f2))) == {t2f2.zero, t2f2.one}


def test_constructed_tables_pass_audit(sample_rings):
    for r in sample_rings:
        assert audit_ring(r) is None


@given(st.integers(2, 9), st.data())
def test_audit_catches_any_single_cell_fault(n, data):
    r = make_zmod(n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    delta = data.draw(st.integers(1, n - 1))
    mul = tuple(
        tuple((r.mul[x][y] + delta) % n if (x, y) == (a, b) else r.mul[x][y] for y in range(n))
        for x in range(n)
    )
    broken = RingTable(n, r.add, mul, 0, 1, f"broken-zmod({n})")
    assert audit_ring(broken) is not None


def test_element_sets_are_bound_and_sized(z6):
    u = units_mask(z6)
    assert u.bit_count() == 2 and u >> 5 & 1 and not u >> 2 & 1
    assert mask_of([1, 5]) == u
