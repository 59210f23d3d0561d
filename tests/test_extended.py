"""Coverage beyond the default corpus: the order-32 witness, the
non-commutative stage, and fail paths.

The default cap keeps every corpus ring at order <= 16, where no semiprime
noncommutative ring admits a denominator set with zero divisors (the smallest
such instance is a matrix ring times a field, order 32).  These tests drive
that instance directly so the zero-divisor statements are exercised on a
genuinely noncommutative semiprime ring, run every check on seven
non-commutative tables of order 27-64, and force the harness down its
failure path with a deliberately false claim.
"""

import pytest

from orespec.checks import (
    REGISTRY,
    TheoremCheck,
    check_completely_prime_corollary,
    check_min_primes_prime_rich,
    check_zero_divisor_den_equivalence,
    decide,
)
from orespec.dsl import parse_ring_expr
from orespec.finring import (
    RingTable,
    audit_ring,
    bits,
    is_commutative,
    make_gf,
    make_matrix_ring,
    make_product,
    make_zmod,
)
from orespec.harness import CorpusConfig, Instance, build_corpus, run_suite
from orespec.ideals import is_semiprime_ring
from orespec.localization import classify_set, left_denominator_sets

from expr_corpus import NONCOMMUTATIVE_EXPRESSIONS

CFG = CorpusConfig()


@pytest.fixture(scope="module")
def big_ring():
    return make_product(make_matrix_ring(2, make_gf(2)), make_gf(2), cap=None)


def test_order32_ring_is_the_missing_coverage_cell(big_ring):
    assert big_ring.order == 32
    assert not is_commutative(big_ring)
    assert is_semiprime_ring(big_ring)
    zero_div_sets = [
        s for s in left_denominator_sets(big_ring, CFG.exhaustive_mult_order)
        if classify_set(s).ass_l_mask != 1
    ]
    assert len(zero_div_sets) >= 10


def test_zero_divisor_statements_on_the_order32_ring(big_ring):
    for fn in (check_zero_divisor_den_equivalence,
               check_completely_prime_corollary,
               check_min_primes_prime_rich):
        out = decide(fn(big_ring, CFG))
        assert out.status == "pass", (fn.__name__, out.clause, out.detail)


def test_localizing_away_the_matrix_factor(big_ring):
    # inverting the idempotent (identity, 0) kills the field slot exactly
    from orespec.localization import close_multiplicative, localize

    m2_one = make_matrix_ring(2, make_gf(2)).one
    s = close_multiplicative(big_ring, 1 << m2_one * 2)  # (1,0) under lexicographic encoding
    sigma = localize(big_ring, s)
    assert sigma.target.order == 16
    assert sorted(bits(sigma.kernel_mask())) == [0, 1]  # the 0 x field slice


def _relabel(r, perm):
    """The same ring with element x renamed perm[x]."""
    old = sorted(r.elements(), key=perm.__getitem__)  # old[perm[x]] == x

    def table(op):
        return tuple(tuple(perm[op[old[a]][old[b]]] for b in r.elements()) for a in r.elements())

    return RingTable(r.order, table(r.add), table(r.mul), perm[r.zero], perm[r.one],
                     f"{r.label}~")


# applicable instances of each check on NONCOMMUTATIVE_EXPRESSIONS at cap 64
NONCOMMUTATIVE_APPLICABLE = {
    "A11Sep23": 7, "aA11Sep23": 7, "a6Oct23": 7, "Aa6Oct23": 7, "Xa10Sep23": 6,
    "b14Oct23": 7, "c14Oct23": 7, "A29Sep23": 7, "aA29Sep23": 7, "B29Sep23": 7,
    "29Sep23": 7, "a29Sep23": 7, "b10Sep23": 1, "A10Sep23": 1, "c10Sep23": 1,
    "aA10Sep23": 6, "A15Sep23": 7, "a20Sep23": 7, "19Sep23": 1, "28Sep23": 1,
    "b28Sep23": 1, "10Jan19": 7, "A2Oct23": 7, "a5Oct23": 7, "A25Sep23": 7,
    "aB25Sep23": 1, "B25Sep23": 1, "a25Sep23": 1, "aC25Sep23": 1, "4Jul10": 7,
}
# the checks applicable on none of the tables, and why
NONCOMMUTATIVE_NEVER_APPLICABLE = {
    "a10Sep23": "needs a prime ring; a finite prime ring is a matrix ring over a "
                "field, and each table here is triangular or a product",
    "a28Sep23": "needs a commutative ring",
    "b29Sep23": "runs on the pairing algebra an only",
}


def test_the_noncommutative_stage_is_clean():
    cfg = CorpusConfig(order_cap=64)
    corpus = [Instance("finite", text, parse_ring_expr(text))
              for text in NONCOMMUTATIVE_EXPRESSIONS]
    audit, *reports = run_suite(corpus, None, cfg)
    assert not any(is_commutative(inst.build(cfg.order_cap)) for inst in corpus)
    assert (audit.passed, audit.counterexamples) == (7, [])
    assert [cx for rep in reports for cx in rep.counterexamples] == []
    applicable = {rep.theorem_id: rep.applicable for rep in reports}
    never = {cid for cid, n in applicable.items() if n == 0}
    assert never == set(NONCOMMUTATIVE_NEVER_APPLICABLE)
    assert {cid: n for cid, n in applicable.items() if n} == NONCOMMUTATIVE_APPLICABLE


def test_products_of_a_ring_whose_zero_is_not_id_0():
    # the DSL always puts zero at id 0; a relabelled table does not
    r = _relabel(make_zmod(6), (2, 3, 5, 0, 4, 1))
    assert audit_ring(r) is None and r.zero == 2
    p = make_product(r, make_zmod(2))
    assert p.zero == r.zero * 2 and audit_ring(p) is None
    # both checks build products of factor rings of r, whose zeros sit off id 0
    inst = Instance("finite", "zmod(6)", parse_ring_expr("zmod(6)"), r)
    reports = run_suite([inst], ("A15Sep23", "aC25Sep23"), CFG)
    assert [(rep.applicable, rep.passed) for rep in reports] == [(1, 1)] * 3


def test_a_false_claim_is_reported_not_swallowed(monkeypatch):
    def bogus(r, cfg):
        if not is_semiprime_ring(r):
            yield "every ring is semiprime", r.label
        yield

    monkeypatch.setitem(
        REGISTRY, "bogus",
        (TheoremCheck(("finite",), "deliberately false claim"), {"finite": bogus}),
    )
    small = CorpusConfig(order_cap=6)
    reports = run_suite(build_corpus(small), ("bogus",), small)
    bogus_report = reports[1]
    assert bogus_report.counterexamples, "the harness must surface real failures"
    assert bogus_report.applicable == bogus_report.passed + len(bogus_report.counterexamples)
    assert any(cx.provenance == "zmod(4)" for cx in bogus_report.counterexamples)


def test_an_engine_bug_is_an_engine_error_counterexample(monkeypatch, capsys):
    from orespec.cli import main

    def buggy(r, cfg):
        if r.label == "zmod(4)":
            raise IndexError("engine bug")
        yield

    monkeypatch.setitem(
        REGISTRY, "buggy",
        (TheoremCheck(("finite",), "a check with an engine bug"), {"finite": buggy}),
    )
    small = CorpusConfig(order_cap=6)
    for jobs in (1, 2):
        cxs = run_suite(build_corpus(small), ("buggy",), small, jobs=jobs)[1].counterexamples
        assert [(cx.provenance, cx.clause, cx.detail) for cx in cxs] == [
            ("zmod(4)", "engine-error", "IndexError: engine bug")
        ]
    assert main(["verify", "--suite", "buggy", "--max-order", "6"]) == 1
    assert "engine-error IndexError: engine bug" in capsys.readouterr().out
