import json
import os
import pathlib
import pickle
import re
import signal
import time
from collections import Counter

import pytest

from orespec import harness
from orespec.checks import COVERAGE, REGISTRY, TheoremCheck
from orespec.cli import main
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

from test_fail_paths import CFG, CLAUSE_LIES, LIES, _lie
from test_fail_paths import _corpus as _fail_path_corpus

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
                        (TheoremCheck(("finite",), "protocol probe"), {"finite": fn}))
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
    with pytest.raises(RingError, match="^--explain A11Sep23:0: A11Sep23 has 0 counterexamples$"):
        explain(reports[1], 0, corpus, SMALL)
    with pytest.raises(RingError,
                       match="^--explain axiom-audit:5: axiom-audit has 1 counterexamples$"):
        explain(reports[0], 5, corpus, SMALL)
    # the serialized witness reparses to the identical instance expression
    cx = reports[0].counterexamples[0]
    assert parse_ring_expr(cx.provenance) == corpus[0].expr


def test_fault_injection_refuses_a_non_finite_instance(capsys):
    text = "mono(vars=2, gens=[v1])"
    with pytest.raises(RingError, match="^fault injection targets finite instances$"):
        inject_table_fault(Instance("monomial", text, parse_ring_expr(text)), SMALL)
    # at order cap 1 the corpus has no finite instance, and seed 0 picks its first
    assert main(["verify", "--max-order", "1", "--inject-fault"]) == 2
    assert capsys.readouterr().err == "error: fault injection targets finite instances\n"


def _explained(monkeypatch, case_id, lies, cid):
    """explain's text for the first counterexample of cid when the fail-path
    case case_id (from lies) makes an engine function lie."""
    case = next(case for case in lies if case.id == case_id)
    _lie(monkeypatch, case.values[0])
    corpus = _fail_path_corpus()
    report = run_suite(corpus, (cid,), CFG)[1]
    return explain(report, 0, corpus, CFG).splitlines()


def test_explain_renders_a_finite_counterexample_with_its_objects(monkeypatch):
    assert _explained(monkeypatch, "prime_exponent", CLAUSE_LIES, "aA29Sep23") == [
        "check:      aA29Sep23",
        "instance:   zmod(4)",
        "clause:     minimal-prime product exponent within order",
        "detail:     ideal=[0]",
        "order:      4",
        "units:      [1, 3]",
        "min primes: [[0, 2]]",
        "den sets:   2",
        "  S=[1] ass=[0] target_order=4 localized_minimals=[[0, 2]]",
        "  S=[1, 3] ass=[0] target_order=4 localized_minimals=[[0, 2]]",
    ]


def test_explain_renders_a_monomial_counterexample_with_its_object(monkeypatch):
    assert _explained(monkeypatch, "min_primes_monomial", LIES, "4Jul10") == [
        "check:      4Jul10",
        "instance:   mono(vars=2, gens=[v1])",
        "clause:     localized monomial units are the inverted-variable fractions",
        "detail:     exp=(-2, -2)",
        "object:     CommMonomialRing(vars=2, gens=['v1'])",
    ]


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


def _count_forks(monkeypatch):
    """Record each os.fork call in the returned list, then fork."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_the_pool_has_at_most_one_worker_per_task(monkeypatch):
    forks = _count_forks(monkeypatch)
    cfg = CorpusConfig(order_cap=4)
    corpus = [Instance("finite", text, parse_ring_expr(text))
              for text in ("zmod(2)", "zmod(3)", "gf(2)", "zmod(4)")]
    serial = render_machine(run_suite(corpus, FAST_IDS, cfg, jobs=1))
    assert forks == []
    assert render_machine(run_suite(corpus, FAST_IDS, cfg, jobs=200)) == serial
    # three tasks, as gf(2) runs on zmod(2)'s table: this process runs one
    assert len(forks) == 2


# tables with 2 to 4 additive generators, so a corrupted cell can reach the
# audit's generator test, unlike in zmod(n)
SEVERAL_GENERATORS = ("prod(zmod(2), zmod(2))", "gf(4)", "mat(2, gf(2))", "tri(2, gf(2))",
                      "prod(zmod(2), zmod(4))")


def test_a_run_without_tasks_still_reports_its_audit(monkeypatch):
    forks = _count_forks(monkeypatch)
    texts = ("zmod(3)", "zmod(4)") + SEVERAL_GENERATORS
    laws = Counter()
    for seed in range(12):
        cfg = CorpusConfig(order_cap=16, seed=seed)
        corpus = [inject_table_fault(Instance("finite", text, parse_ring_expr(text)), cfg)
                  for text in texts]
        audit, *reports = run_suite(corpus, FAST_IDS, cfg, jobs=2)
        # one counterexample per corrupted table, and no check considers one
        assert (audit.considered, audit.passed) == (len(texts), 0)
        assert [cx.provenance for cx in audit.counterexamples] == list(texts)
        assert {cx.clause for cx in audit.counterexamples} == {AUDIT_ID}
        assert [r.considered for r in reports] == [0] * len(FAST_IDS)
        laws.update(cx.detail.split(" fails")[0].split(" at ")[0]
                    for cx in audit.counterexamples[2:])
    assert forks == []
    assert laws == {"left distributivity": 30, "right distributivity": 11,
                    "one is not a multiplicative identity": 19}


FOUR = ("zmod(2)", "zmod(3)", "zmod(4)", "zmod(5)")  # four tasks, two per stripe at jobs=2


def _in_child(monkeypatch, act):
    """Patch the harness so that act(inst) runs first in each forked child."""
    parent = os.getpid()
    run_checks = harness._run_checks_on_instance

    def patched(inst, ids, cfg):
        if os.getpid() != parent:
            act(inst)
        return run_checks(inst, ids, cfg)

    monkeypatch.setattr(harness, "_run_checks_on_instance", patched)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("act, named", [
    (lambda inst: os._exit(7), r"exited with status 7\b"),
    (lambda inst: os.kill(os.getpid(), signal.SIGKILL), r"killed by signal 9\b"),
])
def test_a_dying_worker_raises_instead_of_hanging(monkeypatch, act, named):
    _in_child(monkeypatch, act)
    corpus = [Instance("finite", text, parse_ring_expr(text)) for text in FOUR]
    t0 = time.monotonic()
    with pytest.raises(RingError, match=named):
        run_suite(corpus, FAST_IDS, CorpusConfig(order_cap=5), jobs=2)
    assert time.monotonic() - t0 < 5
    _assert_no_child_left()


def test_the_cli_reports_a_dying_worker_as_an_error(monkeypatch, capsys):
    _in_child(monkeypatch, lambda inst: os._exit(7))
    assert main(["verify", "--max-order", "4", "--suite", "finite", "--jobs", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(r"error: worker process \d+ exited with status 7\n", out.err)
    _assert_no_child_left()


def test_a_short_result_from_a_worker_raises(monkeypatch):
    monkeypatch.setattr(pickle, "dump", lambda obj, out: out.write(pickle.dumps(obj)[:-3]))
    corpus = [Instance("finite", text, parse_ring_expr(text)) for text in FOUR]
    with pytest.raises(RingError, match=r"status 0 but sent a short result"):
        run_suite(corpus, FAST_IDS, CorpusConfig(order_cap=5), jobs=2)
    _assert_no_child_left()


def test_an_exception_in_this_process_kills_and_reaps_the_children(monkeypatch):
    parent = os.getpid()

    def interrupted_here(inst, ids, cfg):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a child outlives the test unless it is killed

    monkeypatch.setattr(harness, "_run_checks_on_instance", interrupted_here)
    corpus = [Instance("finite", text, parse_ring_expr(text)) for text in FOUR]
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suite(corpus, FAST_IDS, CorpusConfig(order_cap=5), jobs=2)
    assert time.monotonic() - t0 < 5
    _assert_no_child_left()
