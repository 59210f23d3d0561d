import itertools
import random

import pytest

from orespec import monomial as mono
from orespec.cli import main
from orespec.dsl import parse_ring_expr
from orespec.finring import RingError, SizeLimitError, bits, interning, mask_of, memo, subsets
from orespec.harness import CorpusConfig, Instance, build_corpus, run_suite
from orespec.monomial import (
    AnAlgebra,
    AnPrime,
    CollapsedLocalizationError,
    NCMonomial,
    all_squarefree_ideals,
    an_build,
    an_localize_normal,
    an_min_primes,
    an_monomial_count,
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
from expr_corpus import random_mono_expressions
from test_fail_paths import _zero_at_top_degree

# ---------------------------------------------------------------------------
# commutative monomial quotients


def cover_oracle(r):
    """Independent brute force over every variable subset, as sets of
    variable indices."""
    supports = [{i for i, e in enumerate(g) if e} for g in r.gens]
    covers = [
        set(c)
        for size in range(r.nvars + 1)
        for c in itertools.combinations(range(r.nvars), size)
        if all(set(c) & s for s in supports)
    ]
    return sorted(
        (sorted(c) for c in covers if not any(o < c for o in covers)),
        key=lambda c: (len(c), c),
    )


def _sets(masks):
    return [list(bits(m)) for m in masks]


def test_min_primes_of_a_single_edge():
    r = make_monomial_ring(2, [(1, 1)])
    assert min_primes_monomial(r) == (0b01, 0b10)


def test_zero_ideal_is_a_domain():
    r = make_monomial_ring(2, [])
    assert min_primes_monomial(r) == (0,)


def test_two_disjoint_edges_have_four_covers():
    r = make_monomial_ring(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    assert len(min_primes_monomial(r)) == 4


def test_min_primes_match_the_brute_force_oracle():
    for n in (1, 2, 3):
        for gens in all_squarefree_ideals(n):
            r = make_monomial_ring(n, gens)
            assert _sets(min_primes_monomial(r)) == cover_oracle(r)
    mixed = make_monomial_ring(3, [(2, 1, 0), (0, 1, 2)])
    assert _sets(min_primes_monomial(mixed)) == cover_oracle(mixed)


def test_unit_ideal_is_rejected():
    with pytest.raises(RingError, match="a constant generator makes the ideal improper"):
        min_primes_monomial(make_monomial_ring(2, [(0, 0)]))


def test_a_monomial_ring_needs_a_variable_and_exponent_vectors_of_its_width():
    with pytest.raises(RingError, match="^need at least one variable$"):
        make_monomial_ring(0, [])
    with pytest.raises(RingError, match=r"^bad exponent vector \(1, -1\)$"):
        make_monomial_ring(2, [(1, -1)])
    with pytest.raises(RingError, match=r"^bad exponent vector \(1,\)$"):
        make_monomial_ring(2, [(1,)])


def test_the_pairing_algebra_refuses_generators_and_sets_out_of_range():
    a = an_build(1, 4)  # x1..x3 (one paired letter, two spares) and z1
    for i in (0, a.letters + 1):
        with pytest.raises(RingError, match=f"^x index {i} out of range$"):
            an_x(a, i)
    for i in (0, 2):
        with pytest.raises(RingError, match=f"^z index {i} out of range$"):
            an_z(a, i)
    for variables in ((), (2,)):
        with pytest.raises(RingError, match="^invert a non-empty subset of the paired indices$"):
            an_localize_normal(a, variables)


def test_saturation_strips_exponents():
    r = make_monomial_ring(3, [(0, 2, 1), (0, 1, 2)])
    assert saturate_monomial(r, 0b10).gens == ((0, 0, 1),)
    assert saturate_monomial(r, 0).gens == r.gens
    r2 = make_monomial_ring(2, [(1, 1)])
    assert saturate_monomial(r2, 0b1).gens == ((0, 1),)


def test_saturation_collapse_is_an_error():
    with pytest.raises(CollapsedLocalizationError):
        saturate_monomial(make_monomial_ring(2, [(1, 0)]), 0b1)


def test_saturation_against_degree_bounded_membership():
    r = make_monomial_ring(3, [(1, 2, 0), (0, 1, 1)])
    assert saturate_monomial(r, 0b10).gens == ((0, 0, 1), (1, 0, 0))
    assert localize_monomial(r, 0b10) is None


def test_localize_regular_variable_keeps_minimal_primes():
    r = make_monomial_ring(3, [(0, 1, 1)])  # k[u,y,z]/(yz), u regular
    assert regular_variables(r) == 0b001
    assert localize_monomial(r, 0b001) is None
    assert saturate_monomial(r, 0b001).gens == r.gens
    assert min_primes_monomial(r) == (0b010, 0b100)


@pytest.mark.parametrize("cid", ["A10Sep23", "c10Sep23", "4Jul10"])
def test_regular_variable_claims_need_a_squarefree_ideal(cid):
    # v2 lies in no minimal cover of (v1*v2, v1^2), yet v1*v2 kills it: the
    # covers find the regular variables of a squarefree ideal only.  Without
    # the guard 4Jul10 inverted v2 here, counted v1*v2^-1 as nonzero though
    # v1 = v1*v2*v2^-1 = 0, and reported one clean case
    text = "mono(vars=2, gens=[v1*v2, v1^2])"
    inst = Instance("monomial", text, parse_ring_expr(text))
    assert regular_variables(inst.build()) == 0b10
    rep = run_suite([inst], (cid,))[1]
    assert (rep.considered, rep.applicable, rep.counterexamples) == (1, 0, [])


def test_localize_zero_divisor_variable():
    r = make_monomial_ring(2, [(1, 1)])
    assert localize_monomial(r, 0b01) is None
    sat = saturate_monomial(r, 0b01)
    assert sat.gens != r.gens
    assert min_primes_monomial(sat) == (0b10,)


def test_localize_nothing_is_the_identity():
    r = make_monomial_ring(2, [(1, 1)])
    assert localize_monomial(r, 0) is None
    assert saturate_monomial(r, 0).gens == r.gens


@pytest.mark.parametrize("target, lie, clause", [
    # one minimal cover of the localization goes missing
    pytest.param("_min_covers_avoiding", lambda fn: lambda r, vmask: fn(r, vmask)[:-1],
                 "minimal primes over the saturation biject", id="covers_avoiding"),
    # the oracle puts every monomial in the saturation
    pytest.param("saturation_membership_oracle", lambda fn: lambda r, v, exp: True,
                 "saturation membership", id="membership_oracle"),
])
def test_localize_monomial_reads_each_route(monkeypatch, target, lie, clause):
    r = make_monomial_ring(2, [(1, 1)])
    monkeypatch.setattr(mono, target, lie(getattr(mono, target)))
    assert localize_monomial(r, 0b1)[0] == clause


def test_cli_mono_localize_fails_on_a_lying_cover_search(capsys, monkeypatch):
    covers = mono._min_covers_avoiding
    monkeypatch.setattr(mono, "_min_covers_avoiding", lambda r, vmask: covers(r, vmask)[:-1])
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
        (make_monomial_ring(3, [(2, 1, 0), (0, 1, 2)]), 0b100),
        (make_monomial_ring(3, [(0, 3, 0), (1, 0, 2)]), 0b001),
        (make_monomial_ring(2, [(1, 2)]), 0b01),
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


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_the_memoised_scan_list_is_monomials_up_to(nvars):
    r = make_monomial_ring(nvars, [(1,) * nvars])
    d = r.degree_bound
    with interning():
        scan = mono._scan_monomials(r)
        assert mono._scan_monomials(r) is scan
    assert scan == tuple(monomials_up_to(nvars, d))
    grid = {e for e in itertools.product(range(d + 1), repeat=nvars) if sum(e) <= d}
    assert len(scan) == len(grid) and set(scan) == grid
    assert [sum(e) for e in scan] == sorted(sum(e) for e in scan)


def test_a_seeded_off_corpus_monomial_stage_is_clean():
    # the default corpus holds squarefree ideals only; these draws put
    # non-squarefree generators through the covers and the saturations, and
    # reach the is_squarefree guard and collapsed localizations
    texts = random_mono_expressions(seed=1, count=150)
    corpus = [Instance("monomial", text, parse_ring_expr(text)) for text in texts]
    reports = {rep.theorem_id: rep for rep in run_suite(corpus)[1:]}
    assert [cx for rep in reports.values() for cx in rep.counterexamples] == []
    for cid in ("A10Sep23", "c10Sep23", "A2Oct23", "4Jul10"):
        assert 0 < reports[cid].applicable < reports[cid].considered == 150, cid


# ---------------------------------------------------------------------------
# the noncommutative pairing algebra


def an_monomials(a):
    """All nonzero normal forms of total degree <= the bound: by degree, then
    word length, then word, then z exponents.  The reference enumeration
    the class heads and the class scans are checked against."""
    letters = range(1, a.letters + 1)
    for total in range(a.degree_bound + 1):
        for wlen in range(total + 1):
            zparts = [(zexp, mask_of(i + 1 for i, e in enumerate(zexp) if e))
                      for zexp in exponent_vectors(total - wlen, a.pairs)]
            for word in itertools.product(letters, repeat=wlen):
                wmask = mask_of(word)
                for zexp, zmask in zparts:
                    if not wmask & zmask:
                        yield NCMonomial(word, zexp, False, wmask, zmask)


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
    assert (p.imask, p.cmask) == (0b010, 0b100)
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
    assert len([p for p in an_min_primes(a) if not mask_of(v) & ~p.imask]) == count


def _counted_products(monkeypatch) -> list:
    """A list that grows by one on every call of monomial.an_multiply."""
    products = []
    multiply = mono.an_multiply
    monkeypatch.setattr(mono, "an_multiply", lambda *args: products.append(1) or multiply(*args))
    return products


def test_localize_at_central_variables_is_memoised_per_set(monkeypatch):
    a = an_build(2, 6)
    assert an_localize_normal(a, {1}) is None
    products = _counted_products(monkeypatch)
    assert an_localize_normal(a, (1,)) is None
    assert products == []
    assert an_localize_normal(a, {2}) is None
    assert products


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_domain_scan_forms_each_product_once(monkeypatch, n):
    # one product per degree-feasible pair of class heads that lie outside
    # a common prime, however many primes that is
    a = an_build(n, default_degree_bound(n))
    primes = an_min_primes(a)
    heads = mono._an_class_representatives(a)
    pairs = sum(1 for m1 in heads for m2 in heads
                if m1.degree() + m2.degree() <= a.degree_bound
                and any(not p.contains(m1) and not p.contains(m2) for p in primes))
    products = _counted_products(monkeypatch)
    assert mono._zero_divisors(a, primes) == [None] * len(primes)
    assert len(products) == pairs == {1: 857, 2: 4029, 3: 7168}[n]


def test_a_fresh_verification_forms_14701_products(monkeypatch):
    products = _counted_products(monkeypatch)
    counts = []
    for n in (1, 2, 3):
        assert an_verify(an_build(n, default_degree_bound(n))) is None
        counts.append(len(products))
        products.clear()
    assert counts == [1086, 4808, 8807]


def test_a_default_run_of_the_pairing_algebras_forms_20335_products(monkeypatch):
    # perfbench's monomial.an_products on the default corpus, which only the
    # an instances reach: an_verify's 14,701 and the localizations' and the
    # checks' own scans
    corpus = [inst for inst in build_corpus(CorpusConfig()) if inst.kind == "an"]
    products = _counted_products(monkeypatch)
    run_suite(corpus)
    assert len(corpus) == 3 and len(products) == 20_335


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
    every pair, in the order of one prime's degree buckets."""
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
            if p.imask != q.imask and not any(p.contains(m) and not q.contains(m) for m in monos):
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
        for m in monos:
            if not m.word and p.contains(m) != bool(m.zmask & p.cmask):
                return "prime meets the centre", (
                    f"{p} meets the centre off (z_j : j in {list(bits(p.cmask))}) at {m}")
    zmonos = [m for m in monos if not m.word and m.degree() > 0]
    for m1 in zmonos:
        for m2 in zmonos:
            if m1.degree() + m2.degree() <= d and an_multiply(a, m1, m2).is_zero:
                return "centre is a domain", f"{m1} * {m2} = 0"
    full = mask_of(range(1, a.pairs + 1))
    defined = [p.imask for p in primes if not any(p.contains(m) for m in zmonos)]
    if defined != [full]:
        return "restriction map", (
            f"defined at {[list(bits(i)) for i in defined]}, not only at {list(bits(full))}")
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
    witnesses = mono._zero_divisors(a, an_min_primes(a))
    assert witnesses == [_full_zero_divisor(a, p) for p in an_min_primes(a)]
    assert any(witnesses) == masked
    mismatches = []
    for V in map(frozenset, subsets(range(1, n + 1), 1)):
        verdict = mono._an_localize_verdict(a, mask_of(V))
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
    # every scan of one algebra reads one class list, built on first use
    calls = []
    body = mono._an_class_representatives.__wrapped__

    def counting(a):
        calls.append(a)
        return body(a)

    monkeypatch.setattr(mono, "_an_class_representatives", memo(counting))
    a = an_build(2, default_degree_bound(2))
    assert an_verify(a) is None
    assert an_localize_normal(a, {1}) is None
    assert calls == [a]


def _form(m):
    return m.word, m.zexp, m.is_zero, m.wmask, m.zmask


def test_the_class_heads_are_the_first_members_in_enumeration_order():
    # one reference enumeration per n, at its largest admitted degree: the
    # enumeration at a lower degree is its prefix of lower-degree forms
    for n in range(5):
        admitted = []
        for d in range(1, 9):
            try:
                admitted.append(an_build(n, d))
            except SizeLimitError:
                pass
        firsts = {}
        for m in an_monomials(admitted[-1]):
            firsts.setdefault((m.degree(), m.wmask, m.zmask), m)
        for a in admitted:
            heads = [_form(m) for m in firsts.values() if m.degree() <= a.degree_bound]
            assert [_form(m) for m in mono._an_class_representatives(a)] == heads, a


def test_class_counts_at_the_default_degree():
    assert [len(mono._an_class_representatives(an_build(n, default_degree_bound(n))))
            for n in (1, 2, 3)] == [58, 162, 319]


# ---------------------------------------------------------------------------
# the masked normal forms against the plain definition


def _bits(indices):
    return sum(1 << i for i in indices)


@pytest.mark.parametrize("n,d", [(2, 6), (3, 5)])
def test_masks_are_the_supports(n, d):
    for m in an_monomials(an_build(n, d)):
        assert m.wmask == _bits(set(m.word))
        assert m.zmask == _bits(i + 1 for i, e in enumerate(m.zexp) if e)


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
        raise AssertionError("class heads were built despite the budget")

    monkeypatch.setattr(mono, "_an_class_representatives", no_enumeration)
    assert main(["an", "verify", "--n", "4", "--degree", "8"]) == 3
    assert "2566955 monomials" in capsys.readouterr().err
    with pytest.raises(SizeLimitError, match=r"an\(n=3\) has 583355 monomials of degree <= 8"):
        an_build(3, 8)
    assert an_build(3, 7).degree_bound == 7


def test_the_largest_admitted_algebras_verify(capsys):
    # the two largest algebras under MAX_AN_MONOMIALS, and the next degree up
    assert an_verify(an_build(2, 8)) is None
    assert an_verify(an_build(3, 7)) is None
    assert main(["an", "verify", "--n", "3", "--degree", "8"]) == 3
    assert "583355 monomials" in capsys.readouterr().err
