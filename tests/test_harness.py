import json
import pathlib
import time

import pytest

from orespec import harness
from orespec.checks import COVERAGE, REGISTRY, TheoremCheck
from orespec.dsl import evaluate, parse_ring_expr
from orespec.finring import RingError, RingTable
from orespec.harness import (
    AUDIT_ID,
    CorpusConfig,
    Instance,
    build_corpus,
    explain,
    inject_table_fault,
    render_machine,
    render_text,
    run_suite,
)

SMALL = CorpusConfig(order_cap=6)


def _content(r):
    return r.order, r.add, r.mul, r.zero, r.one
FAST_IDS = ("A11Sep23", "b10Sep23", "A10Sep23", "aB25Sep23", "b29Sep23")


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(SMALL)


def test_default_corpus_size_and_kinds():
    corpus = build_corpus(CorpusConfig())
    finite = [i for i in corpus if i.kind == "finite"]
    assert len(finite) >= 60
    assert sum(1 for i in corpus if i.kind == "monomial") == 2 + 5 + 19
    assert sum(1 for i in corpus if i.kind == "an") == 3
    assert len({i.provenance for i in corpus}) == len(corpus)


def test_cap_six_corpus_contents(small_corpus):
    provs = {i.provenance for i in small_corpus if i.kind == "finite"}
    for base in ("zmod(2)", "zmod(3)", "zmod(4)", "zmod(5)", "zmod(6)",
                 "gf(2)", "gf(3)", "gf(4)", "prod(zmod(2), zmod(3))"):
        assert base in provs
    assert not any(p.startswith(("mat", "tri")) for p in provs)
    for inst in small_corpus:
        if inst.kind == "finite":
            assert inst.build(SMALL.order_cap).order <= 6


def test_instances_rebuild_from_provenance_alone(small_corpus):
    for inst in small_corpus[:10] + small_corpus[-5:]:
        rebuilt = evaluate(parse_ring_expr(inst.provenance), SMALL.order_cap)
        original = inst.build(SMALL.order_cap)
        if isinstance(original, RingTable):
            assert _content(rebuilt) == _content(original)
        else:
            assert rebuilt == original


def test_coverage_is_the_pinned_catalogue():
    expected = pathlib.Path(__file__).parents[1] / "perfbench" / "expected.json"
    ids = json.loads(expected.read_text())["ids"]
    assert ids[0] == AUDIT_ID
    assert COVERAGE == tuple(ids[1:])


def _probe(monkeypatch, small_corpus, fn):
    """The report of fn registered as a finite check and run on one ring."""
    monkeypatch.setitem(REGISTRY, "probe",
                        (TheoremCheck("probe", ("finite",), "protocol probe"), {"finite": fn}))
    return run_suite(small_corpus[:1], ("probe",), SMALL)[1]


def test_the_first_broken_case_fails_the_check(monkeypatch, small_corpus):
    def check(r, cfg):
        yield
        yield None
        yield "c", "d"

    rep = _probe(monkeypatch, small_corpus, check)
    assert [(cx.clause, cx.detail) for cx in rep.counterexamples] == [("c", "d")]
    assert rep.cases == 3 and rep.applicable == 1 and rep.passed == 0


def test_nothing_after_a_broken_case_runs(monkeypatch, small_corpus):
    ran = []

    def check(r, cfg):
        yield "c", "d"
        ran.append(r.label)
        yield

    rep = _probe(monkeypatch, small_corpus, check)
    assert ran == [] and rep.cases == 1 and len(rep.counterexamples) == 1


def test_a_check_without_cases_is_not_applicable(monkeypatch, small_corpus):
    def check(r, cfg):
        yield from ()

    rep = _probe(monkeypatch, small_corpus, check)
    assert (rep.considered, rep.applicable, rep.cases) == (1, 0, 0)


def test_a_check_raising_between_cases_is_an_engine_error(monkeypatch, small_corpus):
    def check(r, cfg):
        yield
        raise IndexError("engine bug")

    rep = _probe(monkeypatch, small_corpus, check)
    assert [(cx.clause, cx.detail) for cx in rep.counterexamples] == [
        ("engine-error", "IndexError: engine bug")
    ]


def test_wall_time_covers_the_whole_check(monkeypatch, small_corpus):
    def check(r, cfg):
        yield
        time.sleep(0.05)

    rep = _probe(monkeypatch, small_corpus, check)
    assert rep.passed == 1 and rep.cases == 1
    assert rep.wall_ms >= 50


def test_unknown_check_id_is_an_error(small_corpus):
    with pytest.raises(RingError):
        run_suite(small_corpus, ("NoSuchClaim",), SMALL)


def test_a_repeated_check_id_is_an_error(small_corpus):
    # counted once per mention, it would report every case twice
    with pytest.raises(RingError, match=r"repeated check ids: \['A11Sep23'\]"):
        run_suite(small_corpus, ("A11Sep23", "B29Sep23", "A11Sep23"), SMALL)


def test_reports_are_deterministic_across_runs_and_jobs(small_corpus):
    r1 = render_machine(run_suite(build_corpus(SMALL), FAST_IDS, SMALL, jobs=1))
    r2 = render_machine(run_suite(build_corpus(SMALL), FAST_IDS, SMALL, jobs=1))
    r3 = render_machine(run_suite(build_corpus(SMALL), FAST_IDS, SMALL, jobs=2))
    assert r1 == r2 == r3


def test_applicable_splits_into_passed_and_counterexamples(small_corpus):
    for rep in run_suite(small_corpus, FAST_IDS, SMALL):
        assert rep.applicable == rep.passed + len(rep.counterexamples)
        assert rep.applicable <= rep.considered


def test_fault_injection_yields_exactly_one_counterexample(small_corpus):
    corpus = list(small_corpus)
    corpus[0] = inject_table_fault(corpus[0], SMALL)
    reports = run_suite(corpus, FAST_IDS, SMALL)
    assert sum(len(r.counterexamples) for r in reports) == 1
    audit = reports[0]
    assert audit.theorem_id == AUDIT_ID
    assert audit.counterexamples[0].provenance == corpus[0].provenance
    # the corrupted instance is excluded before any claim check runs
    for rep in reports[1:]:
        if REGISTRY[rep.theorem_id][0].kinds == ("finite",):
            assert rep.considered == audit.passed


def test_explain_renders_recipe_and_witness(small_corpus):
    corpus = list(small_corpus)
    corpus[0] = inject_table_fault(corpus[0], SMALL)
    reports = run_suite(corpus, ("A11Sep23",), SMALL)
    text = explain(reports[0], 0, corpus, SMALL)
    assert corpus[0].provenance in text
    assert "axiom-audit" in text
    assert "audit:" in text and "units:" not in text  # the corrupted table, not a rebuild
    assert explain(reports[1], 0, corpus, SMALL) == "no counterexamples"
    with pytest.raises(IndexError):
        explain(reports[0], 5, corpus, SMALL)
    # the serialized witness reparses to the identical instance expression
    cx = reports[0].counterexamples[0]
    assert parse_ring_expr(cx.provenance) == corpus[0].expr


def test_text_rendering_mentions_every_check(small_corpus):
    reports = run_suite(small_corpus, FAST_IDS, SMALL)
    text = render_text(reports)
    for cid in FAST_IDS:
        assert cid in text
    assert "counterexamples: 0" in text


def test_vacuous_hypotheses_report_not_applicable(small_corpus):
    # the pairing-algebra check never applies to finite instances
    reports = run_suite([i for i in small_corpus if i.kind == "finite"][:3],
                        ("b29Sep23",), SMALL)
    rep = reports[1]
    assert rep.considered == 0 and rep.applicable == 0 and rep.passed == 0


class _InProcessPools:
    """Stands in for the multiprocessing module: records each pool's size and
    maps in this process."""

    def __init__(self):
        self.sizes = []

    def get_context(self, method):
        return self

    def Pool(self, workers):
        self.sizes.append(workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


def test_the_pool_has_at_most_one_worker_per_task(monkeypatch):
    pools = _InProcessPools()
    monkeypatch.setattr(harness, "multiprocessing", pools)
    cfg = CorpusConfig(order_cap=4)
    corpus = [Instance("finite", text, parse_ring_expr(text))
              for text in ("zmod(2)", "zmod(3)", "gf(2)", "zmod(4)")]
    serial = render_machine(run_suite(corpus, FAST_IDS, cfg, jobs=1))
    assert render_machine(run_suite(corpus, FAST_IDS, cfg, jobs=200)) == serial
    assert pools.sizes == [3]  # gf(2) runs on zmod(2)'s table


def test_a_run_without_tasks_still_reports_its_audit(monkeypatch):
    pools = _InProcessPools()
    monkeypatch.setattr(harness, "multiprocessing", pools)
    cfg = CorpusConfig(order_cap=4)
    corpus = [inject_table_fault(Instance("finite", text, parse_ring_expr(text)), cfg)
              for text in ("zmod(3)", "zmod(4)")]
    audit, *reports = run_suite(corpus, FAST_IDS, cfg, jobs=2)
    assert pools.sizes == []
    assert (audit.considered, audit.passed, len(audit.counterexamples)) == (2, 0, 2)
    assert [r.considered for r in reports] == [0] * len(FAST_IDS)
