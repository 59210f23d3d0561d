"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import functools
import hashlib
import itertools
import json
import pathlib
import time

import pytest

from expr_corpus import FIXED_EXPRESSIONS
from test_ideals import is_prime_lattice_test
from orespec.dsl import parse_ring_expr, render
from orespec.finring import bits, mask_of, regular_mask, units_mask
from orespec.harness import (
    CorpusConfig,
    build_corpus,
    inject_table_fault,
    render_machine,
    run_suite,
)
from orespec.ideals import (
    all_ideal_masks,
    is_prime_rich,
    is_semiprime_ring,
    min_prime_masks_over,
    prime_flags,
    prime_rich_violation,
    strongly_nilpotent_mask,
)
from orespec.localization import classify_set, left_denominator_sets, localize
from orespec.monomial import (
    all_squarefree_ideals,
    an_build,
    an_localize_normal,
    an_min_primes,
    an_verify,
    default_degree_bound,
    localize_monomial,
    make_monomial_ring,
    min_primes_monomial,
    regular_variables,
    saturate_monomial,
)

CFG = CorpusConfig()


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({title}): PASS")
        return run
    return wrap


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CFG)


@pytest.fixture(scope="module")
def finite_rings(corpus):
    return [inst.build(CFG.order_cap) for inst in corpus if inst.kind == "finite"]


def _clean(reports):
    bad = [r for r in reports if r.counterexamples]
    assert not bad, f"counterexamples in {[r.theorem_id for r in bad]}"


@criterion(1, "five-way localized-ideal criterion")
def test_criterion_1(corpus):
    small = [i for i in corpus if i.kind == "finite"
             and i.build(CFG.order_cap).order <= 12]
    t0 = time.perf_counter()
    reports = run_suite(small, ("A11Sep23",), CFG, jobs=1)
    elapsed = time.perf_counter() - t0
    _clean(reports)
    a11 = reports[1]
    assert a11.cases >= 1000, f"only {a11.cases} (ring, set, ideal) triples"
    assert elapsed < 300, f"took {elapsed:.1f}s single-threaded"


@criterion(2, "regular-variable localization bijection")
def test_criterion_2(corpus):
    t0 = time.perf_counter()
    mono_insts = [i for i in corpus if i.kind == "monomial"]
    reports = run_suite(mono_insts, ("A10Sep23",), CFG)
    _clean(reports)
    checked = 0
    for n in (1, 2, 3):
        for gens in all_squarefree_ideals(n):
            r = make_monomial_ring(n, gens)
            covers = [set(bits(c)) for c in min_primes_monomial(r)]
            oracle = [
                set(c)
                for size in range(n + 1)
                for c in itertools.combinations(range(n), size)
                if all(set(c) & {i for i, e in enumerate(g) if e} for g in r.gens)
            ]
            oracle_min = sorted(
                (c for c in oracle if not any(o < c for o in oracle)),
                key=lambda c: (len(c), sorted(c)),
            )
            assert covers == oracle_min
            regular = bits(regular_variables(r))
            for size in range(len(regular) + 1):
                for combo in itertools.combinations(regular, size):
                    assert localize_monomial(r, mask_of(combo)) is None
                    assert saturate_monomial(r, mask_of(combo)).gens == r.gens
                    checked += 1
    assert checked > 0
    assert time.perf_counter() - t0 < 60


@criterion(3, "zero-divisor denominator sets on semiprime rings")
def test_criterion_3(corpus):
    small = [i for i in corpus if i.kind == "finite"
             and i.build(CFG.order_cap).order <= 12]
    reports = run_suite(small, ("28Sep23", "a28Sep23", "b28Sep23"), CFG)
    _clean(reports)
    semiprime = [i for i in small if is_semiprime_ring(i.build(CFG.order_cap))]
    main = reports[1]
    assert main.applicable == len(semiprime)
    assert main.cases > 0


@criterion(4, "normal-element localization bijections")
def test_criterion_4(corpus):
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        a = an_build(n, default_degree_bound(n))
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                assert an_localize_normal(a, combo) is None
                assert len([p for p in an_min_primes(a) if not mask_of(combo) & ~p.imask]) == \
                    1 << (n - size)
    track = [i for i in corpus if i.kind in ("monomial", "an")]
    reports = run_suite(track, ("A2Oct23",), CFG)
    _clean(reports)
    assert time.perf_counter() - t0 < 120


@criterion(5, "pairing-algebra picture at bounded degree")
def test_criterion_5():
    for n in (1, 2, 3):
        a = an_build(n, default_degree_bound(n))
        assert an_verify(a) is None


@criterion(6, "centre criteria and the central decomposition")
def test_criterion_6(corpus, finite_rings):
    finite = [i for i in corpus if i.kind == "finite"]
    reports = run_suite(finite, ("aB25Sep23", "B25Sep23", "A25Sep23", "aC25Sep23"), CFG)
    _clean(reports)
    by_id = {r.theorem_id: r for r in reports}
    semiprime_count = sum(1 for r in finite_rings if is_semiprime_ring(r))
    assert by_id["B25Sep23"].applicable == semiprime_count
    assert by_id["A25Sep23"].applicable == len(finite_rings)
    # the decomposition reconstructs every semiprime commutative ring exactly
    from orespec.centre import central_regulars_stay_regular, check_pierce
    from orespec.finring import is_commutative

    rebuilt = 0
    for r in finite_rings:
        if is_semiprime_ring(r) and is_commutative(r):
            # on a commutative ring None means the decomposition map is bijective
            assert central_regulars_stay_regular(r) and check_pierce(r) is None, r.label
            rebuilt += 1
    assert rebuilt >= 40


@criterion(7, "independent oracles agree")
def test_criterion_7(finite_rings):
    radical_checked = 0
    for r in finite_rings:
        if r.order > 12:
            continue
        inter = r.full_mask()
        for m in min_prime_masks_over(r, 1 << r.zero):
            inter &= m
        assert inter == strongly_nilpotent_mask(r), r.label
        radical_checked += 1
    assert radical_checked >= 50
    prime_checked = 0
    for r in finite_rings:
        if r.order > 8:
            continue
        for m in all_ideal_masks(r):
            if m == r.full_mask():
                continue
            assert prime_flags(r, m).is_prime == is_prime_lattice_test(r, m), r.label
            prime_checked += 1
    assert prime_checked >= 100


@criterion(8, "finite-ring structural facts")
def test_criterion_8(finite_rings):
    for r in finite_rings:
        assert units_mask(r) == regular_mask(r), r.label
        # no violation: the three conditions agree and every exponent is at most |R|
        assert is_prime_rich(r), r.label
        assert not any(prime_rich_violation(r, m) for m in all_ideal_masks(r)[:-1]), r.label
        for s in left_denominator_sets(r, CFG.exhaustive_mult_order):
            sigma = localize(r, s)
            target_units = units_mask(sigma.target)
            assert all(target_units >> sigma(x) & 1 for x in s.members()), r.label
            assert sigma.kernel_mask() == classify_set(s).ass_l_mask, r.label


@criterion(9, "engineering gate")
def test_criterion_9():
    t0 = time.perf_counter()
    first = render_machine(run_suite(build_corpus(CFG), None, CFG, jobs=1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"full suite took {elapsed:.1f}s"
    second = render_machine(run_suite(build_corpus(CFG), None, CFG, jobs=1))
    assert first == second
    assert '"clean": true' in first
    # the serial report is pinned byte for byte by the benchmark's expectations
    pinned = pathlib.Path(__file__).parents[1] / "perfbench" / "expected.json"
    expected = json.loads(pinned.read_text())
    assert hashlib.sha256(first.encode()).hexdigest() == expected["reports"]["all"]["sha256"]

    for text in FIXED_EXPRESSIONS:
        assert parse_ring_expr(render(parse_ring_expr(text))) == parse_ring_expr(text)
    assert len(FIXED_EXPRESSIONS) >= 50

    corpus = build_corpus(CFG)
    corpus[0] = inject_table_fault(corpus[0], CFG)
    reports = run_suite(corpus, None, CFG)
    assert sum(len(r.counterexamples) for r in reports) == 1
    assert reports[0].counterexamples[0].clause == "axiom-audit"
