"""Metamorphic relations: transformations of a ring whose effect on the
engine's answers is known without knowing the answers.

(a) Renaming the elements of a finite ring changes no verdict: every check
    reports the same status, case count and clause on the relabelled table.
(b) Permuting the variables of a monomial quotient changes no verdict.
(c) Swapping the factors of a product changes no verdict.
(d) The opposite ring, with the multiplication table transposed, swaps the
    left and right outputs of the Ore classification.
(e) Interning tables within a run, and so running the checks once per
    table, changes no byte of the machine report, serial or pooled.
(g) Running the checks once per isomorphism class of tables, and copying a
    row that passed to the other tables of the class, changes no byte of the
    machine report, serial or pooled.

(a) and (d) run over every distinct finite table of the default corpus with
a fixed seed, so a failure is reproducible; (b) and (c) over every monomial
and every product instance of it.
"""

import contextlib
import itertools
import random

from orespec import harness
from orespec.checks import COVERAGE
from orespec.dsl import RingExpr, evaluate
from orespec.finring import RingTable, audit_ring, content, isomorphism
from orespec.harness import (
    CorpusConfig,
    Instance,
    _run_checks_on_instance,
    build_corpus,
    render_machine,
    run_suite,
)
from orespec.localization import mult_set_masks, ore_flags

CFG = CorpusConfig()
SEED = 1


def _relabel(r: RingTable, perm: list[int]) -> RingTable:
    """The same ring with element x renamed perm[x]."""
    inv = sorted(r.elements(), key=perm.__getitem__)  # inv[perm[x]] == x
    add = tuple(tuple(perm[r.add[inv[a]][inv[b]]] for b in r.elements()) for a in r.elements())
    mul = tuple(tuple(perm[r.mul[inv[a]][inv[b]]] for b in r.elements()) for a in r.elements())
    names = tuple(r.name(inv[a]) for a in r.elements())
    return RingTable(r.order, add, mul, perm[r.zero], perm[r.one], r.label, names)


def _opposite(r: RingTable) -> RingTable:
    mul = tuple(tuple(r.mul[b][a] for b in r.elements()) for a in r.elements())
    return RingTable(r.order, r.add, mul, r.zero, r.one, f"op({r.label})", r.names)


def _verdicts(inst: Instance, ring):
    """(check, status, cases, clause) of every check on ring; the detail names
    element ids, so it is left out."""
    run = _run_checks_on_instance(Instance(inst.kind, inst.provenance, inst.expr, ring),
                                  COVERAGE, CFG)
    return [(cid, o.status, o.cases, o.clause) for cid, o, _ in run]


def test_the_corpus_has_43_distinct_finite_tables(corpus_tables):
    assert len(corpus_tables) == 43


def test_relabelling_elements_changes_no_verdict(corpus_tables):
    rng = random.Random(SEED)
    moved_zero = 0
    for inst, r in corpus_tables:
        perm = list(r.elements())
        rng.shuffle(perm)
        twin = _relabel(r, perm)
        assert audit_ring(twin) == [], r.label
        moved_zero += perm[r.zero] != r.zero
        assert _verdicts(inst, twin) == _verdicts(inst, r), r.label
    assert moved_zero >= 30  # the relation reaches tables whose zero is not id 0


def test_a_table_is_isomorphic_to_its_relabelled_twin(corpus_tables):
    rng = random.Random(SEED)
    for _, r in corpus_tables:
        perm = list(r.elements())
        rng.shuffle(perm)
        twin = _relabel(r, perm)
        hom = isomorphism(r, twin)
        assert hom is not None and hom.is_bijective() and hom.verify() == [], r.label


def test_permuting_monomial_variables_changes_no_verdict():
    runs = 0
    for inst in build_corpus(CFG):
        if inst.kind != "monomial":
            continue
        e = inst.expr
        expected = _verdicts(inst, inst.build(CFG.order_cap))
        for perm in itertools.permutations(range(e.ints[0])):
            gens = tuple(tuple(g[p] for p in perm) for g in e.gens)
            twin = evaluate(RingExpr("mono", e.ints, (), gens), CFG.order_cap)
            assert _verdicts(inst, twin) == expected, (inst.provenance, perm)
            runs += 1
    assert runs == 126  # 26 instances in up to 3 variables


def test_swapping_the_factors_of_a_product_changes_no_verdict():
    pairs = 0
    for inst in build_corpus(CFG):
        e = inst.expr
        if e.kind != "prod" or e.subs[0] == e.subs[1]:
            continue
        twin = evaluate(RingExpr("prod", (), e.subs[::-1]), CFG.order_cap)
        assert _verdicts(inst, twin) == _verdicts(inst, inst.build(CFG.order_cap)), \
            inst.provenance
        pairs += 1
    assert pairs == 27


def test_the_opposite_ring_swaps_left_and_right_ore_flags(corpus_tables):
    asymmetric = 0
    for _, r in corpus_tables:
        op = _opposite(r)
        assert mult_set_masks(op) == mult_set_masks(r), r.label
        for m in mult_set_masks(r):
            a, b = ore_flags(r, m), ore_flags(op, m)
            assert (a.left_ore, a.right_ore, a.left_den, a.right_den, a.ass_l_mask, a.ass_r_mask) \
                == (b.right_ore, b.left_ore, b.right_den, b.left_den, b.ass_r_mask, b.ass_l_mask), \
                (r.label, m)
            asymmetric += (a.left_ore, a.left_den, a.ass_l_mask) != (a.right_ore, a.right_den,
                                                                   a.ass_r_mask)
    assert asymmetric > 0  # the swap is not vacuous on the corpus


def test_interning_changes_no_byte_of_the_report(monkeypatch):
    # with interning off every instance is a table, and a task, of its own
    cfg = CorpusConfig(order_cap=8)

    def reports():
        return [
            render_machine(run_suite([inst for inst in build_corpus(cfg) if inst.kind == "finite"],
                                     cfg=cfg, jobs=jobs))
            for jobs in (1, 2)
        ]

    interned = reports()
    monkeypatch.setattr(harness, "interning", contextlib.nullcontext)
    assert reports() == interned


def test_class_evaluation_changes_no_byte_of_the_report(monkeypatch):
    # with the isomorphism search off every table is a class, and a task, of its own
    cfg = CorpusConfig(order_cap=8)

    def finite():
        return [inst for inst in build_corpus(cfg) if inst.kind == "finite"]

    def reports():
        return [render_machine(run_suite(finite(), cfg=cfg, jobs=jobs)) for jobs in (1, 2)]

    calls = []  # the serial run's evaluations; a pooled run makes its own in the workers
    run_checks = harness._run_checks_on_instance
    monkeypatch.setattr(harness, "_run_checks_on_instance",
                        lambda inst, ids, cfg: calls.append(inst) or run_checks(inst, ids, cfg))
    by_class = reports()
    # some class has more than one table, so the relation is not vacuous
    assert len(calls) < len({content(inst.build(cfg.order_cap)) for inst in finite()})
    monkeypatch.setattr(harness, "isomorphism", lambda a, b: None)
    assert reports() == by_class
