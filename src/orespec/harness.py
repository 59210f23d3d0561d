"""Corpus generation and the verification run.

Instances are described by expressions of the ring DSL; the expression text is
the provenance, and rebuilding from it alone reproduces the instance exactly.
Every finite instance passes the full axiom audit before any claim check runs,
so an injected table fault surfaces as a counterexample of the audit report,
never as a bogus theorem verdict.  With jobs above 1 the calling process
forks at most jobs - 1 children, one per task at most, and runs a stripe of
the tasks itself; a child that dies raises RingError, never a hang.  Reports
are deterministic for a fixed configuration regardless of the worker count:
results are merged in corpus order and wall time lives outside the
comparable body.  The checks run once per isomorphism class of finite
tables, and once per instance of the other kinds, and each instance gets
the outcome under its own provenance: a row without a fail is copied to the
other tables of its class, and after a fail each of them not on the first
table object runs the checks on its own.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
import traceback
from dataclasses import asdict, dataclass, field

from .checks import COVERAGE, Outcome, REGISTRY, decide
from .dsl import RingExpr, evaluate, render
from .finring import (
    DEFAULT_ORDER_CAP,
    GF_ORDERS,
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
    out += [RingExpr("gf", (q,)) for q in GF_ORDERS if q <= cfg.order_cap]
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


def class_heads(rings: list[RingTable]) -> list[int]:
    """For each table, the index of the first table isomorphic to it.  A table
    object met before joins its class without a search, and only tables with
    equal invariant keys are searched for an isomorphism."""
    firsts: dict[tuple, list[int]] = {}  # invariant key -> first index of each class
    known: dict[int, int] = {}  # id(table) -> first index of its class
    out = []
    for i, r in enumerate(rings):
        head = known.get(id(r))
        if head is None:
            seen = firsts.setdefault(invariant_key(r), [])
            head = next((j for j in seen if isomorphism(rings[j], r) is not None), i)
            if head == i:
                seen.append(i)
            known[id(r)] = head
        out.append(head)
    return out


def _evaluate(good: list[Instance], todo: list[int], ids: tuple[str, ...],
              cfg: CorpusConfig, jobs: int) -> dict:
    """The checks' rows for the instances at the indices todo.

    With workers = min(jobs, len(todo)) above 1, this process forks
    workers - 1 children and is worker 0 itself: worker w runs the fixed
    stripe todo[::-1][w::workers] (reversed corpus order starts the
    monomial and pairing tasks first), and each child sends its rows back
    pickled through a pipe of its own.  A child that exits nonzero, is
    killed or sends a short result raises RingError once every child is
    reaped; any exception here kills and reaps the children not yet reaped.
    """
    workers = min(jobs, len(todo))  # no idle workers, and none without a task
    if workers <= 1:
        return {i: _run_checks_on_instance(good[i], ids, cfg) for i in todo}
    stripes = [todo[::-1][w::workers] for w in range(workers)]
    children: dict = {}  # pid -> read end of its pipe, until it is reaped
    try:
        for stripe in stripes[1:]:
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_stripe_and_exit(rfd, wfd, good, stripe, ids, cfg)
            children[pid] = os.fdopen(rfd, "rb")
            os.close(wfd)
        rows = {i: _run_checks_on_instance(good[i], ids, cfg) for i in stripes[0]}
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise RingError(f"worker process {pid} "
                                + (f"was killed by signal {-code}" if code < 0
                                   else f"exited with status {code}"))
            try:
                rows.update(pickle.loads(data))
            except (EOFError, pickle.UnpicklingError):
                raise RingError(f"worker process {pid} exited with status 0 "
                                f"but sent a short result ({len(data)} bytes)") from None
        return rows
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_stripe_and_exit(rfd: int, wfd: int, good: list[Instance], stripe: list[int],
                         ids: tuple[str, ...], cfg: CorpusConfig):
    """A forked child's whole life: pickle the stripe's rows into its pipe
    and leave through os._exit, 0 on success and 1 on any exception, so that
    no code of the parent's stack runs again in the child."""
    code = 1
    try:
        os.close(rfd)  # the parent is the pipe's reader
        rows = {i: _run_checks_on_instance(good[i], ids, cfg) for i in stripe}
        with os.fdopen(wfd, "wb") as out:
            pickle.dump(rows, out)
        code = 0
    except Exception:
        traceback.print_exc()  # the parent reports the exit status
    finally:
        os._exit(code)


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
                fault = audit_ring(payload)  # a constructor's table answers from its memo
                if fault is not None:
                    audit.counterexamples.append(
                        Counterexample(inst.provenance, "axiom-audit", fault))
                    continue
                audit.passed += 1
            good.append(inst)
        audit.wall_ms = (time.perf_counter() - t0) * 1000

        # A claim is about the ring, so isomorphic tables share their outcome:
        # the checks run on the first table of each class, and the others copy
        # its row if nothing failed, or else run on their own table unless it
        # is that same object.  Other kinds run once per instance.
        payloads = [inst.build(cfg.order_cap) for inst in good]
        head = list(range(len(good)))  # index -> index of the row it reports
        finite = [i for i, p in enumerate(payloads) if isinstance(p, RingTable)]
        for i, k in zip(finite, class_heads([payloads[i] for i in finite])):
            head[i] = finite[k]
        rows = _evaluate(good, [i for i, k in enumerate(head) if k == i], ids, cfg, jobs)
        failed = {i for i, row in rows.items() if any(o.status == "fail" for _, o, _ in row)}
        rows.update(_evaluate(good, [i for i, k in enumerate(head)
                                     if k in failed and payloads[i] is not payloads[k]],
                              ids, cfg, jobs))

    for row in rows.values():  # each evaluation's time counts once
        for cid, _, dt in row:
            reports[cid].wall_ms += dt
    for i, inst in enumerate(good):
        for cid, outcome, _ in rows[i if i in rows else head[i]]:
            rep = reports[cid]
            rep.considered += 1
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
    the report came from by its provenance.  An index past the report's
    counterexamples is an error that names their count."""
    cid, count = report.theorem_id, len(report.counterexamples)
    if not 0 <= index < count:
        raise RingError(f"--explain {cid}:{index}: {cid} has {count} counterexamples")
    cx = report.counterexamples[index]
    cfg = cfg or CorpusConfig()
    lines = [
        f"check:      {cid}",
        f"instance:   {cx.provenance}",
        f"clause:     {cx.clause}",
    ]
    if cx.detail:
        lines.append(f"detail:     {cx.detail}")
    inst = next(i for i in corpus if i.provenance == cx.provenance)
    payload = inst.build(cfg.order_cap)
    if isinstance(payload, RingTable):
        fault = audit_ring(payload)
        lines.append(f"order:      {payload.order}")
        if fault is not None:
            lines.append(f"audit:      {fault}")
            return "\n".join(lines)
        lines.append(f"units:      {sorted(bits(units_mask(payload)))}")
        mins = min_prime_masks(payload)
        lines.append(f"min primes: {[sorted(bits(m)) for m in mins]}")
        dens = left_denominator_sets(payload, cfg.exhaustive_mult_order)
        lines.append(f"den sets:   {len(dens)}")
        for s in dens[: min(len(dens), 6)]:
            sigma = localize(payload, s)
            localized = [sorted(bits(localize_left_ideal(sigma, m).mask)) for m in mins]
            lines.append(
                f"  S={s.members()} ass={sorted(bits(sigma.kernel_mask()))} "
                f"target_order={sigma.target.order} localized_minimals={localized}"
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
