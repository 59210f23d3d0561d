"""Metamorphic relations: transformations of a ring whose effect on the
engine's answers is known without knowing the answers.

(a) Renaming the elements of a finite ring changes no verdict: every check
    reports the same status, case count and clause on the relabelled table.
(b) The opposite ring, with the multiplication table transposed, swaps the
    left and right outputs of the Ore classification.
(c) Interning tables within a run changes no byte of the machine report.

(a) and (b) run over every distinct finite table of the default corpus with
a fixed seed, so a failure is reproducible.
"""

import contextlib
import random

import pytest

from orespec import harness
from orespec.checks import COVERAGE
from orespec.finring import RingTable, audit_ring, content
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


@pytest.fixture(scope="module")
def tables():
    """One (instance, ring) per distinct table content of the finite corpus."""
    seen = set()
    out = []
    for inst in build_corpus(CFG):
        if inst.kind != "finite":
            continue
        r = inst.build(CFG.order_cap)
        if content(r) not in seen:
            seen.add(content(r))
            out.append((inst, r))
    return out


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


def _verdicts(inst: Instance, ring: RingTable):
    """(check, status, cases, clause) of every check on ring; the detail names
    element ids, so it is left out."""
    run = _run_checks_on_instance(Instance(inst.kind, inst.provenance, inst.expr, ring),
                                  COVERAGE, CFG)
    return [(cid, o.status, o.cases, o.clause) for cid, o, _ in run]


def test_the_corpus_has_43_distinct_finite_tables(tables):
    assert len(tables) == 43


def test_relabelling_elements_changes_no_verdict(tables):
    rng = random.Random(SEED)
    moved_zero = 0
    for inst, r in tables:
        perm = list(r.elements())
        rng.shuffle(perm)
        twin = _relabel(r, perm)
        assert audit_ring(twin) == [], r.label
        moved_zero += perm[r.zero] != r.zero
        assert _verdicts(inst, twin) == _verdicts(inst, r), r.label
    assert moved_zero >= 30  # the relation reaches tables whose zero is not id 0


def test_the_opposite_ring_swaps_left_and_right_ore_flags(tables):
    asymmetric = 0
    for _, r in tables:
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
    cfg = CorpusConfig(order_cap=8)

    def report():
        corpus = [inst for inst in build_corpus(cfg) if inst.kind == "finite"]
        return render_machine(run_suite(corpus, cfg=cfg))

    interned = report()
    monkeypatch.setattr(harness, "interning", contextlib.nullcontext)
    assert report() == interned
