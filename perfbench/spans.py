"""Layer spans and counters recorded from outside the engine.

`install` replaces a few module attributes of the engine with wrappers and
returns the `Tracer` that collects their spans:

* `harness.evaluate` and `harness.audit_ring`, the calls of `run_suite`'s
  build-and-audit loop;
* `harness._run_checks_on_instance`, which first drives every finite ring
  through the engine's layers in dependency order (element sets, ideal
  lattice and primes, multiplicative sets, Ore classification,
  localization, centre and rho) and then runs the check bodies.  Each
  memoised layer is therefore charged once, to its own span, instead of to
  the first check that happens to touch it;
* `monomial.an_verify`, `an_localize_normal` and `an_multiply`, the
  pairing-algebra scans, which run nested inside the `an` check bodies.

Spans are kept in memory as per-name totals.  With a worker pool the
forked workers record their own spans and write them to one file per
process, which `Tracer.collect` merges into the parent's totals.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict

# Spans that cover disjoint parts of run_suite; their sum over the traced
# wall time is trace.coverage.  The monomial spans nest inside checks.an_s.
TOP_LEVEL = (
    "dsl.evaluate_s", "finring.audit_s", "finring.element_sets_s",
    "ideals.lattice_s", "ideals.primes_s", "localization.enumerate_s",
    "localization.classify_s", "localization.localize_s", "centre.rho_s",
    "checks.finite_s", "checks.monomial_s", "checks.an_s",
)
CHECK_SPAN = {"finite": "checks.finite_s", "monomial": "checks.monomial_s", "an": "checks.an_s"}


class Tracer:
    def __init__(self, dump_dir: str | None):
        self.pid = os.getpid()
        self.dump_dir = dump_dir
        self.in_worker = False
        self.reset()

    def reset(self):
        self.spans: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.an_localize_keys: set = set()
        self.slowest_instance_s = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] += time.perf_counter() - t0

    def state(self) -> dict:
        return {
            "spans": dict(self.spans),
            "counts": dict(self.counts),
            "an_localize_keys": sorted(self.an_localize_keys),
            "slowest_instance_s": self.slowest_instance_s,
        }

    def merge(self, state: dict):
        for k, v in state["spans"].items():
            self.spans[k] += v
        for k, v in state["counts"].items():
            self.counts[k] += v
        self.an_localize_keys.update(tuple(k) for k in state["an_localize_keys"])
        self.slowest_instance_s = max(self.slowest_instance_s, state["slowest_instance_s"])

    def enter_process(self):
        """Called on every instance; a forked worker starts from zero."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.reset()
            self.in_worker = True

    def dump_if_worker(self):
        if self.in_worker:
            path = os.path.join(self.dump_dir, f"{self.pid}.json")
            with open(path + ".tmp", "w") as fh:
                json.dump(self.state(), fh)
            os.replace(path + ".tmp", path)

    def collect(self):
        """Merge the span files the pool workers left in dump_dir."""
        for name in sorted(os.listdir(self.dump_dir)):
            if name.endswith(".json"):
                with open(os.path.join(self.dump_dir, name)) as fh:
                    self.merge(json.load(fh))
                os.remove(os.path.join(self.dump_dir, name))


def _stage_finite(tr: Tracer, r, cfg):
    from orespec import centre, finring, ideals, localization
    from orespec.localization import MultSet

    eo = cfg.exhaustive_mult_order
    with tr.span("finring.element_sets_s"):
        finring.units_mask(r)
        finring.regular_mask(r)
        finring.centre_mask(r)
        finring.normal_mask(r)
    with tr.span("ideals.lattice_s"):
        tr.counts["ideals.ideals"] += len(ideals.all_ideal_masks(r))
    with tr.span("ideals.primes_s"):
        ideals.prime_masks(r)
        ideals.min_prime_masks_over(r, 1 << r.zero)
        ideals.prime_radical_mask(r)
    with tr.span("localization.enumerate_s"):
        masks = localization.mult_set_masks(r, eo)
    tr.counts["localization.mult_sets"] += len(masks)
    with tr.span("localization.classify_s"):
        dens = [m for m in masks if localization.classify_set(MultSet(r, m)).left_den]
        localization.left_denominator_masks(r, eo)
    tr.counts["localization.den_sets"] += len(dens)
    with tr.span("localization.localize_s"):
        for m in dens:
            localization.localize(r, MultSet(r, m))
    with tr.span("centre.rho_s"):
        centre.centre_ring(r)
        centre.rho(r)


def install(dump_dir: str | None) -> Tracer:
    from orespec import dsl, harness, monomial
    from orespec.finring import RingError, RingTable

    tr = Tracer(dump_dir)

    evaluate = dsl.evaluate

    def counted_evaluate(*args, **kwargs):
        tr.counts["dsl.evaluate_calls"] += 1
        return evaluate(*args, **kwargs)

    def timed_evaluate(*args, **kwargs):
        with tr.span("dsl.evaluate_s"):
            return counted_evaluate(*args, **kwargs)

    audit_ring = harness.audit_ring

    def timed_audit(r):
        with tr.span("finring.audit_s"):
            return audit_ring(r)

    run_checks = harness._run_checks_on_instance

    def staged_run_checks(inst, ids, cfg):
        tr.enter_process()
        t0 = time.perf_counter()
        payload = inst.build(cfg.order_cap)
        if isinstance(payload, RingTable):
            try:
                _stage_finite(tr, payload, cfg)
            except RingError:
                pass  # the check bodies report the same error as a counterexample
        with tr.span(CHECK_SPAN[inst.kind]):
            row = run_checks(inst, ids, cfg)
        tr.slowest_instance_s = max(tr.slowest_instance_s, time.perf_counter() - t0)
        tr.dump_if_worker()
        return row

    an_verify = monomial.an_verify

    def timed_an_verify(a):
        with tr.span("monomial.an_verify_s"):
            return an_verify(a)

    an_localize_normal = monomial.an_localize_normal

    def timed_an_localize(a, variables):
        tr.counts["monomial.an_localize_calls"] += 1
        tr.an_localize_keys.add((a.pairs, a.degree_bound, *sorted(variables)))
        with tr.span("monomial.an_localize_s"):
            return an_localize_normal(a, variables)

    an_multiply = monomial.an_multiply

    def counted_an_multiply(a, m1, m2):
        tr.counts["monomial.an_products"] += 1
        return an_multiply(a, m1, m2)

    dsl.evaluate = counted_evaluate
    harness.evaluate = timed_evaluate
    harness.audit_ring = timed_audit
    harness._run_checks_on_instance = staged_run_checks
    monomial.an_verify = timed_an_verify
    monomial.an_localize_normal = timed_an_localize
    monomial.an_multiply = counted_an_multiply
    return tr
