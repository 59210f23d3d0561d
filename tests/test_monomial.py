import itertools
import random

import pytest

from orespec import monomial as mono
from orespec.cli import main
from orespec.dsl import parse_ring_expr
from orespec.finring import subsets
from orespec.harness import Instance, run_suite
from orespec.monomial import (
    AnAlgebra,
    AnPrime,
    CollapsedLocalizationError,
    DegreeBudgetError,
    NCMonomial,
    UnitIdealError,
    all_squarefree_ideals,
    an_build,
    an_localize_normal,
    an_min_primes,
    an_monomial_count,
    an_monomials,
    an_multiply,
    an_verify,
    an_x,
    an_z,
    an_zero,
    default_degree_bound,
    exponent_vectors,
    is_squarefree,
    localize_monomial,
    make_monomial_ring,
    min_primes_monomial,
    monomial_in_ideal,
    monomials_up_to,
    noncommuting_generator,
    regular_variables,
    saturate_monomial,
    support,
)
from test_fail_paths import _zero_at_top_degree

# ---------------------------------------------------------------------------
# commutative monomial quotients


def cover_oracle(r):
    """Independent brute force over every variable subset."""
    supports = [support(g) for g in r.gens]
    covers = [
        frozenset(c)
        for size in range(r.nvars + 1)
        for c in itertools.combinations(range(r.nvars), size)
        if all(frozenset(c) & s for s in supports)
    ]
    return sorted(
        (c for c in covers if not any(o < c for o in covers)),
        key=lambda c: (len(c), sorted(c)),
    )


def test_min_primes_of_a_single_edge():
    r = make_monomial_ring(2, [(1, 1)])
    assert min_primes_monomial(r) == [frozenset({0}), frozenset({1})]


def test_zero_ideal_is_a_domain():
    r = make_monomial_ring(2, [])
    assert min_primes_monomial(r) == [frozenset()]


def test_two_disjoint_edges_have_four_covers():
    r = make_monomial_ring(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    assert len(min_primes_monomial(r)) == 4


def test_min_primes_match_the_brute_force_oracle():
    for n in (1, 2, 3):
        for gens in all_squarefree_ideals(n):
            r = make_monomial_ring(n, gens)
            assert min_primes_monomial(r) == cover_oracle(r)
    mixed = make_monomial_ring(3, [(2, 1, 0), (0, 1, 2)])
    assert min_primes_monomial(mixed) == cover_oracle(mixed)


def test_unit_ideal_is_rejected():
    with pytest.raises(UnitIdealError):
        min_primes_monomial(make_monomial_ring(2, [(0, 0)]))


def test_saturation_strips_exponents():
    r = make_monomial_ring(3, [(0, 2, 1), (0, 1, 2)])
    assert saturate_monomial(r, [1]).gens == ((0, 0, 1),)
    assert saturate_monomial(r, []).gens == r.gens
    r2 = make_monomial_ring(2, [(1, 1)])
    assert saturate_monomial(r2, [0]).gens == ((0, 1),)


def test_saturation_collapse_is_an_error():
    with pytest.raises(CollapsedLocalizationError):
        saturate_monomial(make_monomial_ring(2, [(1, 0)]), [0])


def test_saturation_against_degree_bounded_membership():
    r = make_monomial_ring(3, [(1, 2, 0), (0, 1, 1)])
    assert saturate_monomial(r, [1]).gens == ((0, 0, 1), (1, 0, 0))
    assert localize_monomial(r, [1]) is None


def test_localize_regular_variable_keeps_minimal_primes():
    r = make_monomial_ring(3, [(0, 1, 1)])  # k[u,y,z]/(yz), u regular
    assert regular_variables(r) == {0}
    assert localize_monomial(r, [0]) is None
    assert saturate_monomial(r, [0]).gens == r.gens
    assert min_primes_monomial(r) == [frozenset({1}), frozenset({2})]


@pytest.mark.parametrize("cid", ["A10Sep23", "c10Sep23"])
def test_regular_variable_claims_need_a_squarefree_ideal(cid):
    # v2 lies in no minimal cover of (v1*v2, v1^2), yet v1*v2 kills it: the
    # covers find the regular variables of a squarefree ideal only
    text = "mono(vars=2, gens=[v1*v2, v1^2])"
    inst = Instance("monomial", text, parse_ring_expr(text))
    assert regular_variables(inst.build()) == {1}
    rep = run_suite([inst], (cid,))[1]
    assert (rep.considered, rep.applicable, rep.counterexamples) == (1, 0, [])


def test_localize_zero_divisor_variable():
    r = make_monomial_ring(2, [(1, 1)])
    assert localize_monomial(r, [0]) is None
    sat = saturate_monomial(r, [0])
    assert sat.gens != r.gens
    assert min_primes_monomial(sat) == [frozenset({1})]


def test_localize_nothing_is_the_identity():
    r = make_monomial_ring(2, [(1, 1)])
    assert localize_monomial(r, []) is None
    assert saturate_monomial(r, []).gens == r.gens


@pytest.mark.parametrize("target, lie, clause", [
    # one minimal cover of the localization goes missing
    pytest.param("_min_covers_avoiding", lambda fn: lambda r, vset: fn(r, vset)[:-1],
                 "minimal primes over the saturation biject", id="covers_avoiding"),
    # the oracle puts every monomial in the saturation
    pytest.param("saturation_membership_oracle", lambda fn: lambda r, v, exp: True,
                 "saturation membership", id="membership_oracle"),
])
def test_localize_monomial_reads_each_route(monkeypatch, target, lie, clause):
    r = make_monomial_ring(2, [(1, 1)])
    monkeypatch.setattr(mono, target, lie(getattr(mono, target)))
    assert localize_monomial(r, [0])[0] == clause


def test_cli_mono_localize_fails_on_a_lying_cover_search(capsys, monkeypatch):
    covers = mono._min_covers_avoiding
    monkeypatch.setattr(mono, "_min_covers_avoiding", lambda r, vset: covers(r, vset)[:-1])
    assert main(["mono", "localize", "mono(vars=2, gens=[v1*v2])", "--invert", "1"]) == 1
    assert "FAILURE: minimal primes over the saturation biject: V=[1]" in capsys.readouterr().out


def test_squarefree_enumeration_counts():
    assert len(all_squarefree_ideals(1)) == 2
    assert len(all_squarefree_ideals(2)) == 5
    assert len(all_squarefree_ideals(3)) == 19


def test_localize_commutes_with_taking_radicals():
    # minimal primes of the saturated radical match the radical of the
    # saturation, computed both ways
    def radical(r):
        return make_monomial_ring(
            r.nvars, [tuple(1 if e else 0 for e in g) for g in r.gens]
        )

    cases = [
        (make_monomial_ring(3, [(2, 1, 0), (0, 1, 2)]), [2]),
        (make_monomial_ring(3, [(0, 3, 0), (1, 0, 2)]), [0]),
        (make_monomial_ring(2, [(1, 2)]), [0]),
    ]
    for r, v in cases:
        reduced_first = saturate_monomial(radical(r), v)
        localized_first = radical(saturate_monomial(r, v))
        assert min_primes_monomial(reduced_first) == min_primes_monomial(localized_first)
        assert reduced_first.gens == localized_first.gens


def test_radical_iff_squarefree_at_bounded_degree():
    cases = [
        make_monomial_ring(2, [(1, 1)]),
        make_monomial_ring(2, [(2, 0)]),
        make_monomial_ring(3, [(1, 0, 1), (0, 2, 0)]),
    ]
    for r in cases:
        covers = min_primes_monomial(r)
        radical_equal = all(
            monomial_in_ideal(m, r.gens) == all(support(m) & c for c in covers)
            for m in monomials_up_to(r.nvars, r.degree_bound)
            if sum(m) > 0
        )
        assert radical_equal == is_squarefree(r)


# ---------------------------------------------------------------------------
# the noncommutative pairing algebra


def test_pairing_relations():
    a = an_build(2, 6)
    x1, z1, x2, z2 = an_x(a, 1), an_z(a, 1), an_x(a, 2), an_z(a, 2)
    assert an_multiply(a, x1, z1).is_zero
    assert an_multiply(a, z1, x1).is_zero
    left = an_multiply(a, z1, x2)
    right = an_multiply(a, x2, z1)
    assert left == right and not left.is_zero
    one = NCMonomial((), (0,) * a.pairs)
    assert an_multiply(a, one, one) == one


def test_min_prime_index_sets():
    a1 = an_build(1, 6)
    reprs = [repr(p) for p in an_min_primes(a1)]
    assert reprs == ["(z1)", "(x1)"]
    assert len(an_min_primes(an_build(2, 6))) == 4
    a0 = an_build(0, 4)
    assert [repr(p) for p in an_min_primes(a0)] == ["(0)"]


def test_prime_membership_rule():
    a = an_build(2, 6)
    p = an_min_primes(a)[1]  # smallest nonempty index set
    assert p.I == frozenset({1})
    assert p.contains(an_x(a, 1))
    assert not p.contains(an_x(a, 2))
    assert p.contains(an_z(a, 2))
    assert not p.contains(an_z(a, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_verification_report(n):
    a = an_build(n, default_degree_bound(n))
    assert an_verify(a) is None
    assert all(noncommuting_generator(a, an_x(a, i)) for i in range(1, a.letters + 1))
    assert all(noncommuting_generator(a, an_z(a, i)) is None for i in range(1, n + 1))


def test_without_spare_letters_the_centre_grows():
    # the spare free letters are load-bearing: with none, a decorated word
    # commutes with every generator and the z-span claim would be false
    bare = AnAlgebra(2, 6, 2)
    assert noncommuting_generator(bare, NCMonomial((1,), (0, 1))) is None
    assert an_verify(bare)[0] == "centre is the z-polynomials"
    padded = an_build(2, 6)
    assert noncommuting_generator(padded, NCMonomial((1,), (0, 1))) == "x3"


@pytest.mark.parametrize("n,v,count", [(1, {1}, 1), (2, {1}, 2), (2, {1, 2}, 1), (3, {2}, 4)])
def test_localize_at_central_variables(n, v, count):
    a = an_build(n, default_degree_bound(n))
    assert an_localize_normal(a, v) is None
    assert len([p for p in an_min_primes(a) if v <= p.I]) == count


def test_localize_at_central_variables_is_memoised_per_set(monkeypatch):
    a = an_build(2, 6)
    assert an_localize_normal(a, {1}) is None
    products = []
    multiply = mono.an_multiply
    monkeypatch.setattr(mono, "an_multiply", lambda *args: products.append(1) or multiply(*args))
    assert an_localize_normal(a, (1,)) is None
    assert products == []
    assert an_localize_normal(a, {2}) is None
    assert products


@pytest.mark.parametrize("lie, clause", [
    # no prime contains an x letter: none lies over the vanishing ideal
    pytest.param(lambda contains: lambda p, m: not m.word and contains(p, m),
                 "primes over the vanishing ideal", id="no_x_in_any_prime"),
    # every prime contains every z: the images miss the localized primes
    pytest.param(lambda contains: lambda p, m: not m.word or contains(p, m),
                 "prime bijection", id="every_z_in_every_prime"),
])
def test_localize_at_central_variables_reads_prime_membership(monkeypatch, lie, clause):
    monkeypatch.setattr(AnPrime, "contains", lie(AnPrime.contains))
    a = an_build(2, 4)  # fresh, so no memoised verdict answers for it
    assert an_localize_normal(a, {1})[0] == clause


def test_multiplication_is_associative_on_random_triples():
    a = an_build(2, 8)
    monos = list(an_monomials(an_build(2, 4)))
    rng = random.Random(0)
    for _ in range(10_000):
        m1, m2, m3 = (rng.choice(monos) for _ in range(3))
        if m1.degree() + m2.degree() + m3.degree() > a.degree_bound:
            continue
        left = an_multiply(a, an_multiply(a, m1, m2), m3)
        right = an_multiply(a, m1, an_multiply(a, m2, m3))
        assert left == right


def test_products_above_the_degree_bound_stay_exact():
    a = an_build(1, 4)
    big = NCMonomial((2, 2, 2), (0,))
    prod = an_multiply(a, big, big)
    assert not prod.is_zero and prod.degree() > a.degree_bound
    assert prod == NCMonomial((2,) * 6, (0,))


# ---------------------------------------------------------------------------
# the class-representative scans against full per-monomial scans


def _full_zero_divisor(a, p):
    """The first product of two normal forms outside p that lands in p, over
    every pair, in the order of _zero_divisor's degree buckets."""
    outside = [m for m in an_monomials(a) if not p.contains(m)]
    by_degree = {d: [m for m in outside if m.degree() == d]
                 for d in dict.fromkeys(m.degree() for m in outside)}
    for d1, d2 in itertools.product(by_degree, repeat=2):
        if d1 + d2 > a.degree_bound:
            continue
        for m1, m2 in itertools.product(by_degree[d1], by_degree[d2]):
            prod = mono.an_multiply(a, m1, m2)
            if prod.is_zero or p.contains(prod):
                return f"{m1} * {m2}"
    return None


def _full_vanishing_mismatch(a, V):
    """The vanishing-ideal verdict of a scan over every normal form."""
    zfull = NCMonomial((), tuple(int(i + 1 in V) for i in range(a.pairs)))
    for m in an_monomials(a):
        killed = mono.an_multiply(a, mono.an_multiply(a, zfull, m), zfull).is_zero
        if killed != bool(set(m.word) & V):
            return "vanishing ideal", f"V={sorted(V)}: mismatch at {m}"
    return None


def _zero_at_top_degree_on_two_letters(fn):
    # a lie that reads only degree and masks, like the scans, but fires on
    # classes with many members, so a scan over any other member than the
    # first of its class reports a different witness
    def lying(a, m1, m2):
        prod = fn(a, m1, m2)
        if prod.degree() == a.degree_bound and prod.wmask.bit_count() >= 2:
            return mono.an_zero(a)
        return prod
    return lying


def _reversed_after_x2(fn):
    # a lie that reads the word, not the masks: a product whose word starts
    # with x2 comes back with its word reversed
    def lying(a, m1, m2):
        prod = fn(a, m1, m2)
        if prod.word[:1] == (2,):
            return NCMonomial(prod.word[::-1], prod.zexp)
        return prod
    return lying


def _full_an_verify(a):
    """an_verify with every clause scanning every normal form."""
    d = a.degree_bound
    primes = an_min_primes(a)
    monos = list(an_monomials(a))
    for p in primes:
        witness = _full_zero_divisor(a, p)
        if witness:
            return "domain quotients", f"quotient by {p} has zero divisors: {witness}"
    for p in primes:
        for q in primes:
            if p.I != q.I and not any(p.contains(m) and not q.contains(m) for m in monos):
                return "incomparable primes", f"{p} is contained in {q} at degree <= {d}"
    for m in monos:
        if m.degree() > 0 and all(p.contains(m) for p in primes):
            return "zero intersection", f"{m} lies in every minimal prime"
    for m in monos:
        g = noncommuting_generator(a, m)
        if bool(m.word) == (g is None):
            return "centre is the z-polynomials", (
                f"{m} does not commute with {g}" if g else f"{m} is central")
    for p in primes:
        ci = p.complement()
        for m in monos:
            if not m.word and p.contains(m) != bool(m.z_support() & ci):
                return "prime meets the centre", (
                    f"{p} meets the centre off (z_j : j in {sorted(ci)}) at {m}")
    zmonos = [m for m in monos if not m.word and m.degree() > 0]
    for m1 in zmonos:
        for m2 in zmonos:
            if m1.degree() + m2.degree() <= d and an_multiply(a, m1, m2).is_zero:
                return "centre is a domain", f"{m1} * {m2} = 0"
    full = frozenset(range(1, a.pairs + 1))
    defined = {p.I for p in primes if not any(p.contains(m) for m in zmonos)}
    if defined != {full}:
        return "restriction map", (
            f"defined at {[sorted(i) for i in defined]}, not only at {sorted(full)}")
    if a.pairs >= 1:
        z1, x1 = an_z(a, 1), an_x(a, 1)
        z1_regular = all(
            not an_multiply(a, z1, m).is_zero for m in zmonos if m.degree() + 1 <= d
        )
        if not (z1_regular and an_multiply(a, z1, x1).is_zero):
            return "criterion witness", "missing the central-regular zero-divisor witness"
    return None


@pytest.mark.parametrize("lie, masked", [
    pytest.param(None, False, id="honest"),
    pytest.param(_zero_at_top_degree, True, id="zero_at_top_degree"),
    pytest.param(_zero_at_top_degree_on_two_letters, True, id="two_letters"),
    pytest.param(_reversed_after_x2, False, id="word_reversal"),
])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_class_scans_match_the_full_scans(monkeypatch, n, lie, masked):
    # masked: the lie reads only degree and masks, so the class scans see it
    if lie is not None:
        monkeypatch.setattr(mono, "an_multiply", lie(mono.an_multiply))
    a = an_build(n, default_degree_bound(n))  # fresh, so no memoised verdict answers
    assert an_verify(a) == _full_an_verify(a)
    witnesses = [mono._zero_divisor(a, p) for p in an_min_primes(a)]
    assert witnesses == [_full_zero_divisor(a, p) for p in an_min_primes(a)]
    assert any(witnesses) == masked
    mismatches = []
    for V in map(frozenset, subsets(range(1, n + 1), 1)):
        verdict = mono._an_localize_verdict(a, V)
        full = _full_vanishing_mismatch(a, V)
        assert verdict == full if full else verdict is None
        mismatches.append(full)
    assert any(mismatches) == (masked and n > 0)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_commutation_is_constant_on_each_class(n):
    a = an_build(n, default_degree_bound(n))
    by_class = {}
    for m in an_monomials(a):
        by_class.setdefault((m.degree(), m.wmask, m.zmask), set()).add(
            noncommuting_generator(a, m))
    assert all(len(found) == 1 for found in by_class.values())
    assert len(by_class) < sum(1 for _ in an_monomials(a))


def test_a_fresh_verification_enumerates_the_normal_forms_once(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a)
        return an_monomials(a)

    monkeypatch.setattr(mono, "an_monomials", counting)
    a = an_build(2, default_degree_bound(2))
    assert an_verify(a) is None
    assert an_localize_normal(a, {1}) is None
    assert calls == [a]


# ---------------------------------------------------------------------------
# the masked normal forms against the plain definition


def _bits(indices):
    return sum(1 << i for i in indices)


@pytest.mark.parametrize("n,d", [(2, 6), (3, 5)])
def test_masks_are_the_supports(n, d):
    for m in an_monomials(an_build(n, d)):
        assert m.wmask == _bits(set(m.word))
        assert m.zmask == _bits(m.z_support())


def _reference_product(m1, m2):
    if m1.is_zero or m2.is_zero:
        return None
    word = m1.word + m2.word
    zexp = tuple(x + y for x, y in zip(m1.zexp, m2.zexp))
    if any(i <= len(zexp) and zexp[i - 1] for i in word):
        return None
    return word, zexp


@pytest.mark.parametrize("n", [1, 2, 3])
def test_products_agree_with_the_plain_definition(n):
    a = an_build(n, 3)
    monos = list(an_monomials(a)) + [an_zero(a)]
    for m1 in monos:
        for m2 in monos:
            prod = an_multiply(a, m1, m2)
            ref = _reference_product(m1, m2)
            if ref is None:
                assert prod.is_zero and prod == an_zero(a)
            else:
                expected = NCMonomial(*ref)
                assert not prod.is_zero and (prod.word, prod.zexp) == ref
                assert (prod.wmask, prod.zmask) == (expected.wmask, expected.zmask)


def _nested_loop_monomials(a):
    # the enumeration as it read before the exponent vectors were hoisted
    for total in range(a.degree_bound + 1):
        for wlen in range(total + 1):
            for word in itertools.product(range(1, a.letters + 1), repeat=wlen):
                wsupp = frozenset(word)
                for zexp in exponent_vectors(total - wlen, a.pairs):
                    if any(e and (i + 1) in wsupp for i, e in enumerate(zexp)):
                        continue
                    yield NCMonomial(word, zexp)


@pytest.mark.parametrize("n,d", [(0, 5), (1, 6), (2, 6), (3, 5)])
def test_monomial_enumeration_keeps_its_order(n, d):
    a = an_build(n, d)
    got = [(m.word, m.zexp, m.is_zero) for m in an_monomials(a)]
    assert got == [(m.word, m.zexp, m.is_zero) for m in _nested_loop_monomials(a)]


def test_monomials_compare_only_with_monomials():
    m = NCMonomial((1,), (0, 2))
    assert m == NCMonomial((1,), (0, 2)) and hash(m) == hash(NCMonomial((1,), (0, 2)))
    assert m.__eq__(((1,), (0, 2), False)) is NotImplemented
    assert m != ((1,), (0, 2), False)
    assert NCMonomial((), (0,), True) != NCMonomial((), (0,))


# ---------------------------------------------------------------------------
# the monomial budget of the pairing algebra


@pytest.mark.parametrize("n", range(5))
def test_monomial_count_matches_the_enumeration(n):
    for d in range(1, 6):
        assert an_monomial_count(n, d) == len(list(an_monomials(an_build(n, d))))


def test_monomial_count_reference_values():
    assert an_monomial_count(2, 8) == 97_679
    assert an_monomial_count(3, 7) == 122_068
    assert an_monomial_count(4, 8) == 2_566_955


def test_an_budget_is_checked_before_any_enumeration(capsys, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("monomials were enumerated despite the budget")

    monkeypatch.setattr(mono, "an_monomials", no_enumeration)
    assert main(["an", "verify", "--n", "4", "--degree", "8"]) == 3
    assert "2566955 monomials" in capsys.readouterr().err
    with pytest.raises(DegreeBudgetError):
        an_build(3, 8)
    assert an_build(3, 7).degree_bound == 7


def test_the_largest_admitted_algebras_verify(capsys):
    # the two largest algebras under MAX_AN_MONOMIALS, and the next degree up
    assert an_verify(an_build(2, 8)) is None
    assert an_verify(an_build(3, 7)) is None
    assert main(["an", "verify", "--n", "3", "--degree", "8"]) == 3
    assert "583355 monomials" in capsys.readouterr().err
