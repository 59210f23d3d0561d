#!/usr/bin/env python3
"""Benchmark of orespec's claim suite: time to verdict, set-up, memory.

    python3 perfbench/run.py --workload verify-serial --seed 3 --seconds 38 --trace 0

Run it from the root of a checkout; it imports the engine from `src/`.
Every repetition is a fresh interpreter (`rep.py`), so the engine's global
caches start cold as they do for `orespec verify`.  Repetitions run one
after another until `--seconds` is used up (at least three, or with
`--trace 1` at least one untraced and two traced).  Every report is checked
against the pinned known-good report in `expected.json`.

The lines before the last describe the run for a reader.  The last line is
one JSON object: `correct`, `attempted` and `failed` count (instance, check)
outcomes; `metrics` holds the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1`, each the median over the repetitions.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from statistics import median

from rep import WORKLOADS
from spans import TOP_LEVEL

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 4       # set-up-only interpreters per run, besides the repetitions
MIN_UNTRACED = 3
MIN_TRACED = 2
REP_TIMEOUT_S = 150

with open(os.path.join(HERE, "expected.json")) as fh:
    EXPECTED = json.load(fh)


class RepFailed(Exception):
    pass


def spawn(spec: dict) -> dict:
    """Run one repetition; set-up is measured from before the interpreter starts."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the repetition and its pool workers
        proc.communicate()
        raise RepFailed(f"repetition exceeded {REP_TIMEOUT_S} s: {spec}")
    if proc.returncode != 0:
        raise RepFailed(f"repetition exited {proc.returncode}: {spec}\n{stderr[-2000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_ready"] - t0
    out["rep_s"] = time.monotonic() - t0
    return out


class Gate:
    """Counts (instance, check) outcomes and checks every report.

    A pass fails outright (every outcome counted as failed) when its report
    is not byte-identical to the pinned one or lacks a row; otherwise each
    counterexample counts once.  A repetition that crashed counts all the
    outcomes it should have produced.
    """

    def __init__(self, workload: str):
        self.expected = EXPECTED["reports"]["finite" if workload == "finite-repeat" else "all"]
        self.passes = WORKLOADS[workload][1]
        self.attempted = self.failed = 0
        self.shas: set[str] = set()

    def check(self, out: dict):
        for p in out["passes"]:
            self.shas.add(p["sha256"])
            same = p["sha256"] == self.expected["sha256"] and p["ids"] == EXPECTED["ids"]
            self.attempted += p["pairs"]
            self.failed += p["counterexamples"] or (0 if same else p["pairs"])
        self.crashed(self.passes - len(out["passes"]))

    def crashed(self, passes: int):
        self.attempted += passes * self.expected["pairs"]
        self.failed += passes * self.expected["pairs"]


def well_sampled(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            return f"p{p} {q:.4f}"
    return "p_hi n/a (n<20)"


def untraced_metrics(reps, setups):
    return {
        "verify_s": ([r["verify_s"] for r in reps], "s"),
        "setup_s": (setups, "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in reps], "MB"),
    }


def traced_metrics(reps, traced, jobs):
    def span(name):
        return [t["trace"]["spans"].get(name, 0.0) for t in traced]

    def count(name):
        return [t["trace"]["counts"].get(name, 0) for t in traced]

    m = {}
    for name in ("dsl.evaluate_s", "finring.audit_s", "finring.element_sets_s",
                 "ideals.lattice_s", "ideals.primes_s", "localization.enumerate_s",
                 "localization.classify_s", "localization.localize_s", "centre.rho_s",
                 "checks.finite_s", "checks.monomial_s",
                 "monomial.an_verify_s", "monomial.an_localize_s"):
        m[name] = (span(name), "s")
    for name in ("dsl.evaluate_calls", "ideals.ideals", "localization.mult_sets",
                 "localization.den_sets", "monomial.an_localize_calls", "monomial.an_products"):
        m[name] = (count(name), "count")
    m["localization.den_yield"] = (
        [d / s if s else 0.0 for d, s in zip(count("localization.den_sets"),
                                             count("localization.mult_sets"))], "ratio")
    m["monomial.an_localize_distinct"] = (
        [len(t["trace"]["an_localize_keys"]) for t in traced], "count")
    m["checks.an_self_s"] = (
        [a - v - loc for a, v, loc in zip(span("checks.an_s"), span("monomial.an_verify_s"),
                                          span("monomial.an_localize_s"))], "s")
    m["harness.busy_s"] = ([sum(p["busy_s"] for p in r["passes"]) for r in reps], "s")
    m["harness.parallel_eff"] = (
        [sum(p["busy_s"] for p in r["passes"]) / (jobs * r["verify_s"]) for r in reps], "ratio")
    m["harness.critical_path_s"] = ([t["trace"]["slowest_instance_s"] for t in traced], "s")
    m["cache.entries"] = ([r["cache_entries"] for r in reps], "count")
    m["rss_growth_mb"] = ([r["rss_growth_mb"] for r in reps], "MB")
    m["trace.coverage"] = (
        [sum(t["trace"]["spans"].get(k, 0.0) for k in TOP_LEVEL) / (jobs * t["verify_s"])
         for t in traced], "ratio")
    m["trace.overhead_s"] = (
        [t["verify_s"] - median([r["verify_s"] for r in reps]) for t in traced], "s")
    return m


def repeated_counts(traced) -> list[str]:
    """Counts that differ between traced repetitions of the same code."""
    first = traced[0]["trace"]["counts"]
    return sorted({k for t in traced[1:] for k in set(first) | set(t["trace"]["counts"])
                   if first.get(k) != t["trace"]["counts"].get(k)})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join("src", "orespec", "__init__.py")):
        print("run from the root of an orespec checkout: src/orespec is missing", file=sys.stderr)
        return 2

    jobs = WORKLOADS[args.workload][0]
    deadline = time.monotonic() + args.seconds
    base = {"workload": args.workload, "seed": args.seed, "trace": False}
    gate = Gate(args.workload)
    try:
        spawn(dict(base, mode="setup"))  # writes bytecode, warms the file cache
        setups = [spawn(dict(base, mode="setup"))["setup_s"] for _ in range(SETUP_SAMPLES)]
    except RepFailed as exc:
        print(f"set-up failed; nothing measured\n{exc}", file=sys.stderr)
        return 1

    reps, traced, durations = [], [], []
    crashes = 0
    while True:
        want_trace = bool(args.trace) and (len(traced) <= len(reps))
        enough = len(reps) >= (1 if args.trace else MIN_UNTRACED) and \
            len(traced) >= (MIN_TRACED if args.trace else 0)
        if enough and time.monotonic() + median(durations) > deadline:
            break
        try:
            out = spawn(dict(base, mode="run", trace=want_trace))
        except RepFailed as exc:
            print(exc, file=sys.stderr)
            gate.crashed(WORKLOADS[args.workload][1])
            crashes += 1
            if crashes >= 3:
                break
            continue
        durations.append(out["rep_s"])
        gate.check(out)
        (traced if want_trace else reps).append(out)
        if not want_trace:
            setups.append(out["setup_s"])

    if not reps or (args.trace and not traced):
        print("no repetition completed; nothing measured", file=sys.stderr)
        return 1
    if args.trace:
        metrics = traced_metrics(reps, traced, jobs)
        unsteady = repeated_counts(traced)
        if unsteady:
            print(f"counts differ between traced repetitions: {unsteady}", file=sys.stderr)
            gate.failed += len(unsteady)
    else:
        metrics = untraced_metrics(reps, setups)

    print(f"workload {args.workload}  seed {args.seed}  jobs {jobs}  "
          f"repetitions {len(reps)} untraced, {len(traced)} traced")
    for name, (values, unit) in metrics.items():
        print(f"  {name:<32} median {median(values):12.4f} {unit:<6} "
              f"max {max(values):12.4f}  {well_sampled(values)}  n={len(values)}  "
              f"[{' '.join(f'{v:.4g}' for v in values)}]")
    print(f"  report sha256 {' '.join(sorted(gate.shas))}")
    print(f"  failed_frac {gate.failed / max(gate.attempted, 1):.6f} "
          f"({gate.failed} of {gate.attempted} (instance, check) outcomes)")
    if not args.trace:
        print("  peak_rss_mb = (ru_maxrss self + jobs x ru_maxrss children) / 1024, "
              "taken after the last run_suite pass")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": median(values), "unit": unit}
                    for name, (values, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
