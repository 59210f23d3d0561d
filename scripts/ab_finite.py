#!/usr/bin/env python3
"""Alternating A/B timing of two orespec checkouts on one perfbench workload.

    python3 scripts/ab_finite.py PARENT CHANGE --workload finite-repeat --rounds 12

Each round starts one fresh interpreter per checkout, in alternating order
(parent first in even rounds, change first in odd ones), and runs that
checkout's own `perfbench/rep.py` on the workload, so each side measures its
own code with its own harness.  Every interpreter reports the wall time of
`run_suite` (rep.py's `verify_s`), the CPU time spent inside `run_suite`
(this process's `time.process_time` plus the user and system time of the
worker processes it forked and reaped, read from `RUSAGE_CHILDREN`) and
rep.py's `peak_rss_mb`.  The script prints, for each side, the median, the
quartiles and the minimum of each, the number of rounds the change was lower
on each measure (ties count for neither side), and whether the change meets
the rule for claiming a gain: lower in at least 90 % of the rounds, and the
medians farther apart than the parent's interquartile range.  It also prints
the report sha256 of each side.  Process CPU is the steadier of the two
times on a shared machine: another tenant's load stretches wall time more
than CPU time.

Each checkout caches its bytecode, and the standard library's, in a
temporary directory of its own (`PYTHONPYCACHEPREFIX`, with
`PYTHONDONTWRITEBYTECODE` dropped), which is removed at exit, and runs once
unmeasured before the first round to fill it.  So no
measured interpreter compiles a module: the compiler's leftover heap would
move the peak RSS by a few tenths of a MB.  Only the standard library is
used, and nothing is written under either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from statistics import median, quantiles

# Runs inside the fresh interpreter: load rep.py from the checkout, count
# the CPU of run_suite and of the workers it reaped, and print one JSON line.
DRIVER = r"""
import json, resource, sys, time
sys.path.insert(0, "perfbench")
import rep
import orespec.harness as harness
spent = [0.0]
run_suite = harness.run_suite
def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime
def timed(*args, **kwargs):
    t0, c0 = time.process_time(), children_cpu()
    try:
        return run_suite(*args, **kwargs)
    finally:
        spent[0] += time.process_time() - t0 + children_cpu() - c0
harness.run_suite = timed
out = rep.run(json.loads(sys.argv[1]))
print(json.dumps({"verify_s": out["verify_s"], "cpu_s": spent[0],
                  "peak_rss_mb": out["peak_rss_mb"],
                  "shas": sorted({p["sha256"] for p in out["passes"]})}))
"""

# (key, name, unit) of each measure the summary compares
MEASURES = (("verify_s", "wall", "s"), ("cpu_s", "cpu", "s"), ("peak_rss_mb", "rss", "MB"))


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, by the inclusive method, which stays
    within the sample's range on a few rounds."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(par: list[float], chg: list[float]) -> tuple[int, bool]:
    """The rounds the change was lower, and whether that and the median gap
    meet the rule for claiming a lower value."""
    won = sum(c < p for p, c in zip(par, chg))
    q1, q3 = quartiles(par)
    return won, won >= 0.9 * len(par) and median(par) - median(chg) > q3 - q1


def environment(tree: str, cache: str) -> dict:
    """The interpreters' environment: tree's package, one hash seed, and
    bytecode written to cache even where the caller's environment turns
    bytecode writing off."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return dict(env, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0",
                PYTHONPYCACHEPREFIX=cache)


def one(tree: str, env: dict, spec: dict) -> dict:
    proc = subprocess.run([sys.executable, "-c", DRIVER, json.dumps(spec)], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"{tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout measured as the baseline")
    ap.add_argument("change", help="checkout measured against it")
    ap.add_argument("--workload", default="finite-repeat")
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    trees = {side: os.path.abspath(path) for side, path in
             (("parent", args.parent), ("change", args.change))}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "rep.py")):
            ap.error(f"{tree} has no perfbench/rep.py")
    spec = {"mode": "run", "workload": args.workload, "seed": args.seed, "trace": False}

    with tempfile.TemporaryDirectory(prefix="ab_finite_") as caches:
        envs = {side: environment(tree, os.path.join(caches, side))
                for side, tree in trees.items()}
        for side, tree in trees.items():
            one(tree, envs[side], spec)  # unmeasured: fills the bytecode cache
        runs = {"parent": [], "change": []}
        for i in range(args.rounds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(one(trees[side], envs[side], spec))
            p, c = runs["parent"][-1], runs["change"][-1]
            print(f"round {i + 1:>2}: wall {p['verify_s']:.3f} -> {c['verify_s']:.3f} s, "
                  f"cpu {p['cpu_s']:.3f} -> {c['cpu_s']:.3f} s, "
                  f"rss {p['peak_rss_mb']:.2f} -> {c['peak_rss_mb']:.2f} MB", flush=True)

    for key, name, unit in MEASURES:
        par = [r[key] for r in runs["parent"]]
        chg = [r[key] for r in runs["change"]]
        won, met = verdict(par, chg)
        (p1, p3), (c1, c3) = quartiles(par), quartiles(chg)
        print(f"{name:>4}: median {median(par):.3f} -> {median(chg):.3f} {unit} "
              f"({median(chg) / median(par) - 1:+.1%}), "
              f"quartiles {p1:.3f}-{p3:.3f} -> {c1:.3f}-{c3:.3f} {unit}, "
              f"min {min(par):.3f} -> {min(chg):.3f} {unit} ({min(chg) / min(par) - 1:+.1%}); "
              f"change lower in {won} of {args.rounds} rounds; "
              f"lower in >= 90 % of rounds and median gap > parent IQR: "
              f"{'met' if met else 'not met'}")
    for side in ("parent", "change"):
        shas = sorted({s for r in runs[side] for s in r["shas"]})
        print(f"{side} report sha256: {', '.join(shas)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
