"""Within an interning scope, constructors share one table per content.

`build_corpus` and `run_suite` each open a scope when none is open, and
`orespec verify` holds one scope over both, so a command builds and audits
each content once.  Outside a scope every constructor returns a fresh
object, and after the outermost scope the tables it interned can be freed.
Quotients and centres are interned too, so within a scope the centre of a
commutative ring is the ring itself; so are monomial quotients, so the
covers and localizations of an ideal are computed once.  The checks run
once per isomorphism class of tables, and every instance reports under its own
provenance: a row that passed is copied to the class, and after a fail each
instance on another table object of the class runs the checks on its own.
"""

import contextlib
import gc
import weakref
from collections import Counter

import pytest

from orespec import checks, cli, finring, harness, localization
from orespec import monomial as mono
from orespec.centre import centre_ring
from orespec.checks import REGISTRY, TheoremCheck
from orespec.dsl import parse_ring_expr
from orespec.finring import (
    _INTERN,
    centre_mask,
    content,
    interning,
    is_commutative,
    make_gf,
    make_matrix_ring,
    make_product,
    make_upper_triangular,
    make_zmod,
    units_mask,
)
from orespec.harness import CorpusConfig, Instance, build_corpus, render_machine, run_suite


def _finite_corpus(cfg):
    return [inst for inst in build_corpus(cfg) if inst.kind == "finite"]


def _count_runs(monkeypatch, module, name, key, readers=()) -> Counter:
    """Runs of the body of the memoised module.name, per key(*args), from
    every caller that reads it from module or from one of readers; a call
    the memo answers runs none."""
    calls = Counter()
    body = getattr(module, name).__wrapped__

    def counting(*args):
        calls[key(*args)] += 1
        return body(*args)

    counted = finring.memo(counting)
    for reader in (module, *readers):
        monkeypatch.setattr(reader, name, counted)
    return calls


def _count_audits(monkeypatch) -> Counter:
    """Audits that run, per content: from the constructors and centre_ring,
    and from run_suite's audit loop."""
    return _count_runs(monkeypatch, finring, "audit_ring", content, (harness,))


def test_a_finite_run_audits_each_interned_content_once(monkeypatch):
    cfg = CorpusConfig(order_cap=8)
    corpus = _finite_corpus(cfg)
    calls = _count_audits(monkeypatch)
    run_suite(corpus, cfg=cfg)
    assert {content(inst.build(cfg.order_cap)) for inst in corpus} <= calls.keys()
    assert set(calls.values()) == {1}


def test_a_default_run_evaluates_each_concept_once(monkeypatch):
    # before the monomial track was memoised on interned rings, a default
    # run made 230 localizations of 176 (ring, V) pairs and swept the
    # covers of 26 ideals 218 times
    covers = _count_runs(monkeypatch, mono, "min_primes_monomial", lambda r: r)
    localized = _count_runs(monkeypatch, mono, "localize_monomial", lambda r, v: (r, v))
    scans = _count_runs(monkeypatch, mono, "_scan_monomials", lambda r: r)
    searches = _count_runs(monkeypatch, localization, "submonoid_levels",
                           lambda r, pool, depth: (content(r), pool, depth), (checks,))
    cfg = CorpusConfig()
    run_suite(build_corpus(cfg), cfg=cfg)
    for calls in (covers, localized, searches, scans):
        assert calls and set(calls.values()) == {1}
    # one scan list per monomial ring, not one per localization
    assert (len(covers), len(localized), len(scans)) == (26, 176, 26)
    assert scans.keys() == {r for r, v in localized}


def test_a_verify_command_audits_each_content_once(monkeypatch, capsys):
    # the corpus is built and run in one scope: 42 contents while it is
    # built, and 4 more that the checks make, such as quotients; every
    # centre is a table of one of these contents
    calls = _count_audits(monkeypatch)
    assert cli.main(["verify", "--suite", "finite", "--format", "machine"]) == 0
    capsys.readouterr()
    assert len(calls) == sum(calls.values()) == 46


def test_describe_labels_the_ring_by_its_own_expression(capsys):
    # only verify opens a scope; inside one, gf(2) would be zmod(2)'s table,
    # and the product would be labelled prod(zmod(2), zmod(2))
    assert cli.main(["describe", "prod(zmod(2), gf(2))"]) == 0
    assert "ring:        prod(zmod(2), gf(2))\n" in capsys.readouterr().out


def test_the_default_finite_pass_audits_under_a_hundred_tables(monkeypatch):
    cfg = CorpusConfig()
    corpus = _finite_corpus(cfg)
    calls = _count_audits(monkeypatch)
    run_suite(corpus, cfg=cfg)
    assert sum(calls.values()) < 100  # one per table built, 2,369 before interning


def _count_evaluations(monkeypatch) -> list[str]:
    """The provenance of every instance the checks are run on."""
    calls = []
    run_checks = harness._run_checks_on_instance

    def counted(inst, ids, cfg):
        calls.append(inst.provenance)
        return run_checks(inst, ids, cfg)

    monkeypatch.setattr(harness, "_run_checks_on_instance", counted)
    return calls


def test_a_finite_pass_runs_the_checks_once_per_table(monkeypatch):
    cfg = CorpusConfig()
    corpus = _finite_corpus(cfg)
    calls = _count_evaluations(monkeypatch)
    run_suite(corpus, cfg=cfg)
    # 43 table contents in 30 isomorphism classes: zmod(6), prod(zmod(2), zmod(3))
    # and prod(zmod(3), gf(2)) are one ring, and so on
    assert len({content(inst.build(cfg.order_cap)) for inst in corpus}) == 43
    assert len(calls) == len(set(calls)) == 30
    assert len(corpus) == 184


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_repeat_instance_reports_under_its_own_provenance(monkeypatch, jobs):
    z2 = content(make_zmod(2))

    def fails_on_z2(r, cfg):
        if content(r) == z2:
            yield "fails on Z/2", r.label
        yield

    monkeypatch.setitem(
        REGISTRY, "z2", (TheoremCheck(("finite",), "fails on Z/2"), {"finite": fails_on_z2})
    )
    corpus = [Instance("finite", text, parse_ring_expr(text))
              for text in ("zmod(2)", "zmod(3)", "gf(2)")]
    calls = _count_evaluations(monkeypatch)
    rep = run_suite(corpus, ("z2",), CorpusConfig(order_cap=4), jobs=jobs)[1]
    assert corpus[0].build() is corpus[2].build()  # gf(2) repeats zmod(2)'s table
    assert (rep.considered, rep.applicable, rep.passed) == (3, 3, 1)
    assert [(cx.provenance, cx.clause, cx.detail) for cx in rep.counterexamples] == [
        ("zmod(2)", "fails on Z/2", "zmod(2)"),
        ("gf(2)", "fails on Z/2", "zmod(2)"),
    ]
    # at jobs=2 this process runs the stripe todo[::-1][0::2] and counts it;
    # the forked child counts zmod(2) in its own copy
    assert calls == (["zmod(2)", "zmod(3)"] if jobs == 1 else ["zmod(3)"])


SIX = ("zmod(6)", "prod(zmod(2), zmod(3))", "prod(zmod(3), gf(2))")  # one ring, three tables


def _six(monkeypatch, check):
    monkeypatch.setitem(
        REGISTRY, "six", (TheoremCheck(("finite",), "a ring of order 6"), {"finite": check})
    )
    return [Instance("finite", text, parse_ring_expr(text)) for text in SIX]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_fail_on_a_class_reruns_each_table_with_its_own_detail(monkeypatch, jobs):
    def names_the_one(r, cfg):
        yield "fails at one", f"one={r.one}"  # an element id, which the tables number apart

    corpus = _six(monkeypatch, names_the_one)
    calls = _count_evaluations(monkeypatch)
    rep = run_suite(corpus, ("six",), CorpusConfig(order_cap=6), jobs=jobs)[1]
    assert len({content(inst.build()) for inst in corpus}) == 3
    assert [(cx.provenance, cx.detail) for cx in rep.counterexamples] == [
        ("zmod(6)", "one=1"), ("prod(zmod(2), zmod(3))", "one=4"), ("prod(zmod(3), gf(2))", "one=3"),
    ]
    # one class, so its first table runs alone here; at jobs=2 the two
    # reruns are striped, the child taking the second table
    assert calls == (list(SIX) if jobs == 1 else [SIX[0], SIX[2]])


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_fail_on_the_first_table_of_a_class_reruns_the_others(monkeypatch, jobs):
    z6 = content(make_zmod(6))

    def fails_on_z6(r, cfg):
        yield ("fails on this table", f"one={r.one}") if content(r) == z6 else None

    corpus = _six(monkeypatch, fails_on_z6)
    rep = run_suite(corpus, ("six",), CorpusConfig(order_cap=6), jobs=jobs)[1]
    assert (rep.considered, rep.applicable, rep.passed, rep.cases) == (3, 3, 2, 3)
    assert [(cx.provenance, cx.detail) for cx in rep.counterexamples] == [("zmod(6)", "one=1")]


def test_a_pass_on_a_class_runs_its_first_table_only(monkeypatch):
    def passes(r, cfg):
        yield from (None for _ in r.elements())

    corpus = _six(monkeypatch, passes)
    calls = _count_evaluations(monkeypatch)
    rep = run_suite(corpus, ("six",), CorpusConfig(order_cap=6))[1]
    assert (rep.considered, rep.applicable, rep.passed, rep.cases) == (3, 3, 3, 18)
    assert calls == ["zmod(6)"]


def test_outside_a_run_nothing_is_interned():
    assert _INTERN.get() is None
    assert make_zmod(4) is not make_zmod(4)
    assert make_gf(2) is not make_zmod(2)


def test_inside_a_run_one_table_per_content():
    with interning():
        z2 = make_zmod(2)
        assert make_zmod(2) is z2 and make_gf(2) is z2
        assert make_product(z2, make_zmod(3)) is make_product(make_gf(2), make_zmod(3))
        assert make_zmod(4) is not z2
    assert _INTERN.get() is None
    assert make_zmod(2) is not z2


def test_a_nested_scope_joins_the_enclosing_one():
    with interning():
        z2 = make_zmod(2)
        with interning():
            assert make_gf(2) is z2
            units_mask(z2)
        assert z2.memo and make_zmod(2) is z2  # the inner end emptied nothing
    assert _INTERN.get() is None and not z2.memo


CONSTRUCTORS = [
    ("zmod(4)", lambda: make_zmod(4)),
    ("gf(4)", lambda: make_gf(4)),
    ("mat(2, gf(2))", lambda: make_matrix_ring(2, make_gf(2))),
    ("tri(2, gf(2))", lambda: make_upper_triangular(2, make_gf(2))),
    ("prod(zmod(2), zmod(3))", lambda: make_product(make_zmod(2), make_zmod(3))),
]


def _count_builds(monkeypatch) -> Counter:
    """Tables constructed, by label."""
    built = Counter()
    table = finring.RingTable

    def counted(*args):
        built[args[5]] += 1  # the label
        return table(*args)

    monkeypatch.setattr(finring, "RingTable", counted)
    return built


@pytest.mark.parametrize("label, construct", CONSTRUCTORS, ids=[c[0] for c in CONSTRUCTORS])
def test_inside_a_run_a_repeated_constructor_call_builds_once(monkeypatch, label, construct):
    built = _count_builds(monkeypatch)
    with interning():
        first = construct()
        assert construct() is first
    assert first.label == label and built[label] == 1


@pytest.mark.parametrize("label, construct", CONSTRUCTORS, ids=[c[0] for c in CONSTRUCTORS])
def test_outside_a_run_every_constructor_call_builds_and_audits(monkeypatch, label, construct):
    built = _count_builds(monkeypatch)
    calls = _count_audits(monkeypatch)
    first, second = construct(), construct()
    assert first is not second and first.label == second.label == label
    assert built[label] == calls[content(first)] == 2


def test_the_centre_is_its_embedding_and_a_commutative_ring_its_own_centre():
    cfg = CorpusConfig()
    with interning():
        for inst in _finite_corpus(cfg):
            r = inst.build(cfg.order_cap)
            iota = centre_ring(r)
            assert iota.target is r and iota.verify() is None and iota.is_injective()
            assert iota.image_mask() == centre_mask(r)
            assert (iota.source is r) == is_commutative(r), inst.provenance


def test_an_injected_fault_is_audited_in_the_run():
    cfg = CorpusConfig(order_cap=4)
    corpus = _finite_corpus(cfg)
    corpus[0] = harness.inject_table_fault(corpus[0], cfg)
    audit = run_suite(corpus, ("A11Sep23",), cfg)[0]
    assert [cx.provenance for cx in audit.counterexamples] == [corpus[0].provenance]


def test_a_serial_run_keeps_no_reference_to_its_tables():
    cfg = CorpusConfig(order_cap=4)
    corpus = build_corpus(cfg)
    run_suite(corpus, ("A11Sep23",), cfg)
    assert _INTERN.get() is None
    ring = corpus[0].build(cfg.order_cap)  # built, and interned, during the run

    ref = weakref.ref(ring)
    del corpus, ring
    gc.collect()
    assert ref() is None


def _corpus_rows(corpus):
    return [(inst.kind, inst.provenance, inst.expr) for inst in corpus]


def test_build_corpus_audits_each_content_once_and_lists_the_same_instances(monkeypatch):
    cfg = CorpusConfig()
    calls = _count_audits(monkeypatch)
    scoped = build_corpus(cfg)
    assert sum(calls.values()) == len(calls) == 42  # 123 audits without the scope
    monkeypatch.setattr(harness, "interning", contextlib.nullcontext)
    calls.clear()
    unscoped = build_corpus(cfg)
    assert sum(calls.values()) > len(calls) == 42
    assert _corpus_rows(scoped) == _corpus_rows(unscoped)
    assert len(scoped) == 213


def test_a_run_empties_the_memo_of_every_table_it_interned():
    cfg = CorpusConfig(order_cap=8)
    corpus = _finite_corpus(cfg)
    first = render_machine(run_suite(corpus, cfg=cfg))
    tables = [inst.build(cfg.order_cap) for inst in corpus]
    assert all(not r.memo for r in tables)
    with interning():
        # a noncommutative ring, so its centre is a table of its own
        r = make_product(make_zmod(2), make_upper_triangular(2, make_gf(2)))
        centre = weakref.ref(centre_ring(r).source)
        assert centre().order == 4 and r.memo
    assert not r.memo
    gc.collect()
    assert centre() is None  # reached only through the memo
    # the tables stay usable: their derived data is computed again
    assert render_machine(run_suite(corpus, cfg=cfg)) == first
