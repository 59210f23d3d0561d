"""Corpus generation and the verification run.

Instances are described by expressions of the ring DSL; the expression text is
the provenance, and rebuilding from it alone reproduces the instance exactly.
Every finite instance passes the full axiom audit before any claim check runs,
so an injected table fault surfaces as a counterexample of the audit report,
never as a bogus theorem verdict.  Reports are deterministic for a fixed
configuration regardless of the worker count: results are merged in corpus
order and wall time lives outside the comparable body.  The checks run once
per isomorphism class of finite tables, and once per payload object of the
other kinds, and each instance gets the outcome under its own provenance:
a row without a fail is copied to the other tables of its class, and after
a fail each of them runs the checks on its own table.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import asdict, dataclass, field

from .checks import COVERAGE, Outcome, REGISTRY, decide
from .dsl import RingExpr, evaluate, render
from .finring import (
    DEFAULT_ORDER_CAP,
    RingError,
    RingTable,
    audit_ring,
    bits,
    interning,
    invariant_key,
    isomorphism,
    units_mask,
)
from .ideals import all_ideal_masks, min_prime_masks
from .localization import (
    EXHAUSTIVE_MULT_ORDER,
    left_denominator_sets,
    localize,
    localize_left_ideal,
)
from .monomial import all_squarefree_ideals


@dataclass(frozen=True)
class CorpusConfig:
    order_cap: int = DEFAULT_ORDER_CAP
    exhaustive_mult_order: int = EXHAUSTIVE_MULT_ORDER
    seed: int | None = None  # of inject_table_fault, the only reader; None is 0


# corpus extent beyond the order cap: zmod(n) for n <= 16, squarefree monomial
# ideals in up to 3 variables, the pairing algebras an(n=1..3)
MAX_MODULAR = 16
MONOMIAL_VARS = 3
PAIRING_N = 3


@dataclass
class Instance:
    kind: str        # "finite" | "monomial" | "an"
    provenance: str
    expr: RingExpr
    _payload: object = field(default=None, repr=False)

    def build(self, cap: int | None = None):
        if self._payload is None:
            self._payload = evaluate(self.expr, cap)
        return self._payload


def _finite_base_exprs(cfg: CorpusConfig) -> list[RingExpr]:
    out = [RingExpr("zmod", (n,)) for n in range(2, min(MAX_MODULAR, cfg.order_cap) + 1)]
    out += [RingExpr("gf", (q,)) for q in (2, 3, 4) if q <= cfg.order_cap]
    if 16 <= cfg.order_cap:
        out.append(RingExpr("mat", (2,), (RingExpr("gf", (2,)),)))
    if 8 <= cfg.order_cap:
        out.append(RingExpr("tri", (2,), (RingExpr("gf", (2,)),)))
    if 27 <= cfg.order_cap:
        out.append(RingExpr("tri", (2,), (RingExpr("gf", (3,)),)))
    return out


def build_corpus(cfg: CorpusConfig) -> list[Instance]:
    """The deterministic default corpus; instances keyed by their provenance.

    The rings it reads are built in one interning scope, so each content is
    built and audited once, and they are dropped when it returns."""
    exprs = _finite_base_exprs(cfg)
    with interning():
        rings = [evaluate(e, cfg.order_cap) for e in exprs]
        nbase = len(exprs)
        for i in range(nbase):
            for j in range(i, nbase):
                if rings[i].order * rings[j].order <= cfg.order_cap:
                    exprs.append(RingExpr("prod", (), (exprs[i], exprs[j])))
        rings += [evaluate(e, cfg.order_cap) for e in exprs[nbase:]]

        pairs = [("finite", e) for e in exprs]
        pairs += [
            ("finite", RingExpr("quot", (), (e,), tuple(bits(m))))
            for e, ring in zip(exprs, rings)
            for m in all_ideal_masks(ring)[1:-1]  # proper nonzero, canonical order
        ]
    pairs += [
        ("monomial", RingExpr("mono", (n,), (), gens))
        for n in range(1, MONOMIAL_VARS + 1)
        for gens in all_squarefree_ideals(n)
    ]
    pairs += [("an", RingExpr("an", (n,))) for n in range(1, PAIRING_N + 1)]

    seen = set()
    instances = []
    for kind, e in pairs:
        text = render(e)
        if text not in seen:
            seen.add(text)
            instances.append(Instance(kind, text, e))
    return instances


def inject_table_fault(inst: Instance, cfg: CorpusConfig) -> Instance:
    """Corrupt one multiplication-table cell of a finite instance (self-test)."""
    ring = inst.build(cfg.order_cap)
    if not isinstance(ring, RingTable):
        raise RingError("fault injection targets finite instances")
    import random

    rng = random.Random(cfg.seed or 0)
    a = rng.randrange(ring.order)
    b = rng.randrange(ring.order)
    bad_val = (ring.mul[a][b] + 1) % ring.order
    mul = tuple(
        tuple(bad_val if (x, y) == (a, b) else ring.mul[x][y] for y in range(ring.order))
        for x in range(ring.order)
    )
    corrupted = RingTable(ring.order, ring.add, mul, ring.zero, ring.one,
                          ring.label + "!fault", ring.names)
    return Instance(inst.kind, inst.provenance, inst.expr, corrupted)


@dataclass
class Counterexample:
    provenance: str
    clause: str
    detail: str = ""


@dataclass
class CheckReport:
    theorem_id: str
    track: str
    description: str
    note: str
    considered: int = 0
    applicable: int = 0
    passed: int = 0
    cases: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    wall_ms: float = 0.0

    def clean(self) -> bool:
        return not self.counterexamples

    def to_dict(self):
        """The report body, without the wall time."""
        body = asdict(self)
        del body["wall_ms"]
        return body


AUDIT_ID = "axiom-audit"


def track_of(kinds: tuple[str, ...]) -> str:
    if kinds == ("finite",):
        return "finite"
    if "finite" not in kinds:
        return "monomial"
    return "both"


def _run_checks_on_instance(inst: Instance, ids: tuple[str, ...], cfg: CorpusConfig):
    payload = inst.build(cfg.order_cap)
    out = []
    for cid in ids:
        fn = REGISTRY[cid][1].get(inst.kind)
        if fn is None:
            continue
        t0 = time.perf_counter()
        try:
            outcome = decide(fn(payload, cfg))
        except Exception as exc:  # an engine bug is a counterexample, not an abort
            outcome = Outcome("fail", 1, "engine-error", f"{type(exc).__name__}: {exc}")
        out.append((cid, outcome, (time.perf_counter() - t0) * 1000))
    return out


_WORKER_STATE: dict = {}


def _worker(args):
    idx, ids = args
    inst = _WORKER_STATE["corpus"][idx]
    cfg = _WORKER_STATE["cfg"]
    return idx, _run_checks_on_instance(inst, ids, cfg)


def class_heads(rings: list[RingTable]) -> list[int]:
    """For each table, the index of the first table isomorphic to it.  Only
    tables with equal invariant keys are searched for an isomorphism."""
    firsts: dict[tuple, list[int]] = {}  # invariant key -> first index of each class
    out = []
    for i, r in enumerate(rings):
        seen = firsts.setdefault(invariant_key(r), [])
        head = next((j for j in seen if isomorphism(rings[j], r) is not None), None)
        if head is None:
            seen.append(i)
            head = i
        out.append(head)
    return out


def _evaluate(good: list[Instance], todo: list[int], ids: tuple[str, ...],
              cfg: CorpusConfig, jobs: int) -> dict:
    """The checks' rows for the instances at the indices todo, serially or in
    a pool of at most jobs workers."""
    tasks = [(i, ids) for i in todo]
    workers = min(jobs, len(tasks))  # no idle workers, and none without a task
    if workers <= 1:
        return {i: _run_checks_on_instance(good[i], ids, cfg) for i in todo}
    _WORKER_STATE["corpus"] = good
    _WORKER_STATE["cfg"] = cfg
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            return dict(pool.map(_worker, tasks))
    finally:
        _WORKER_STATE.clear()


def run_suite(
    corpus: list[Instance],
    ids: tuple[str, ...] | None = None,
    cfg: CorpusConfig | None = None,
    jobs: int = 1,
) -> list[CheckReport]:
    """Run the selected checks over the corpus; one report per check id."""
    cfg = cfg or CorpusConfig()
    ids = tuple(ids) if ids else COVERAGE
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise RingError(f"unknown check ids: {unknown}")
    if len(set(ids)) < len(ids):
        raise RingError(f"repeated check ids: {sorted({i for i in ids if ids.count(i) > 1})}")

    audit = CheckReport(AUDIT_ID, "finite", "operation tables satisfy the ring axioms", "")
    reports = {
        cid: CheckReport(cid, track_of(REGISTRY[cid][0].kinds),
                         REGISTRY[cid][0].description, REGISTRY[cid][0].note)
        for cid in ids
    }
    good: list[Instance] = []
    with interning():
        t0 = time.perf_counter()
        for inst in corpus:
            payload = inst.build(cfg.order_cap)
            if isinstance(payload, RingTable):
                audit.considered += 1
                audit.applicable += 1
                audit.cases += 1
                bad = audit_ring(payload)  # a constructor's table answers from its memo
                if bad:
                    audit.counterexamples.append(
                        Counterexample(inst.provenance, "axiom-audit", bad[0])
                    )
                    continue
                audit.passed += 1
            good.append(inst)
        audit.wall_ms = (time.perf_counter() - t0) * 1000

        # A check reads only the payload, so the instances built on one object
        # share its outcome: one head per object, its first instance.
        heads: dict[int, int] = {}  # id(payload) -> index of its first instance
        head_of = [heads.setdefault(id(inst.build(cfg.order_cap)), i)
                   for i, inst in enumerate(good)]
        # A claim is about the ring, so isomorphic tables share their outcome
        # too: the checks run on the first head of each class, and the other
        # heads copy its row if nothing failed, or else run on their own table.
        first = {i: i for i in heads.values()}  # head -> first head of its class
        finite = [i for i in first if isinstance(good[i].build(cfg.order_cap), RingTable)]
        for i, k in zip(finite, class_heads([good[i].build(cfg.order_cap) for i in finite])):
            first[i] = finite[k]
        rows = _evaluate(good, [i for i in first if first[i] == i], ids, cfg, jobs)
        failed = {i for i, row in rows.items() if any(o.status == "fail" for _, o, _ in row)}
        rows.update(_evaluate(good, [i for i in first if i not in rows and first[i] in failed],
                              ids, cfg, jobs))
        for i in first:
            if i not in rows:
                rows[i] = [(cid, outcome, 0.0) for cid, outcome, _ in rows[first[i]]]

    for i, (inst, head) in enumerate(zip(good, head_of)):
        for cid, outcome, dt in rows[head]:
            rep = reports[cid]
            rep.considered += 1
            if i == head:  # each evaluation's time counts once
                rep.wall_ms += dt
            if outcome.status == "na":
                continue
            rep.applicable += 1
            rep.cases += outcome.cases
            if outcome.status == "pass":
                rep.passed += 1
            else:
                rep.counterexamples.append(
                    Counterexample(inst.provenance, outcome.clause, outcome.detail)
                )
    return [audit] + [reports[cid] for cid in ids]


def explain(report: CheckReport, index: int, corpus: list[Instance],
            cfg: CorpusConfig | None = None) -> str:
    """Render one counterexample: the recipe, the failed clause, and the
    intermediate objects of the instance that ran, looked up in the corpus
    the report came from by its provenance."""
    if not report.counterexamples:
        return "no counterexamples"
    if not 0 <= index < len(report.counterexamples):
        raise IndexError(f"counterexample index {index} out of range")
    cx = report.counterexamples[index]
    cfg = cfg or CorpusConfig()
    lines = [
        f"check:      {report.theorem_id}",
        f"instance:   {cx.provenance}",
        f"clause:     {cx.clause}",
    ]
    if cx.detail:
        lines.append(f"detail:     {cx.detail}")
    inst = next(i for i in corpus if i.provenance == cx.provenance)
    payload = inst.build(cfg.order_cap)
    if isinstance(payload, RingTable):
        bad = audit_ring(payload)
        lines.append(f"order:      {payload.order}")
        if bad:
            lines.append(f"audit:      {bad[0]}")
            return "\n".join(lines)
        lines.append(f"units:      {sorted(bits(units_mask(payload)))}")
        mins = min_prime_masks(payload)
        lines.append(f"min primes: {[sorted(bits(m)) for m in mins]}")
        dens = left_denominator_sets(payload, cfg.exhaustive_mult_order)
        lines.append(f"den sets:   {len(dens)}")
        for s in dens[: min(len(dens), 6)]:
            loc = localize(payload, s)
            localized = [sorted(bits(localize_left_ideal(loc.sigma, m).mask)) for m in mins]
            lines.append(
                f"  S={s.members()} ass={sorted(bits(loc.ass_mask))} "
                f"target_order={loc.target.order} localized_minimals={localized}"
            )
    else:
        lines.append(f"object:     {payload!r}")
    return "\n".join(lines)


def render_machine(reports: list[CheckReport]) -> str:
    body = {
        "format": "orespec-report-v1",
        "reports": [r.to_dict() for r in reports],
        "clean": all(r.clean() for r in reports),
    }
    return json.dumps(body, indent=2, sort_keys=True)


def render_text(reports: list[CheckReport]) -> str:
    lines = []
    width = max(len(r.theorem_id) for r in reports)
    for r in reports:
        status = "ok" if r.clean() else "FAIL"
        lines.append(
            f"{r.theorem_id:<{width}}  {status:<4} considered={r.considered:<4} "
            f"applicable={r.applicable:<4} passed={r.passed:<4} cases={r.cases:<7} "
            f"({r.wall_ms:7.1f} ms)  {r.description}"
        )
        if r.note:
            lines.append(f"{'':<{width}}  note: {r.note}")
        for i, cx in enumerate(r.counterexamples):
            lines.append(f"{'':<{width}}  counterexample[{i}]: {cx.provenance} :: {cx.clause} {cx.detail}")
    total_cx = sum(len(r.counterexamples) for r in reports)
    lines.append(f"counterexamples: {total_cx}")
    if total_cx:
        lines.append(
            "every catalogued claim is established, so a counterexample above "
            "signals a defective table or an engine bug, not new mathematics"
        )
    return "\n".join(lines)
