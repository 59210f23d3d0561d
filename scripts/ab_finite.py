#!/usr/bin/env python3
"""Alternating A/B timing of two orespec checkouts on one perfbench workload.

    python3 scripts/ab_finite.py PARENT CHANGE --workload finite-repeat --rounds 12

Each round starts one fresh interpreter per checkout, in alternating order
(parent first in even rounds, change first in odd ones), and runs that
checkout's own `perfbench/rep.py` on the workload, so each side measures its
own code with its own harness.  Every interpreter reports the wall time of
`run_suite` (rep.py's `verify_s`) and the process CPU time spent inside
`run_suite` (read with `time.process_time`; on a pooled workload this misses
the workers' CPU).  The script prints the median and the minimum of both for
each side, the report sha256 of each side, and the number of rounds the
change won on each measure.  Process CPU is the steadier of the two on a
shared machine: another tenant's load stretches wall time more than CPU
time.

Only the standard library is used, and nothing is written under either
checkout's `perfbench/` (bytecode of rep.py is not cached).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

# Runs inside the fresh interpreter: load rep.py from the checkout without
# writing its bytecode, count run_suite's process CPU, and print one JSON line.
DRIVER = r"""
import json, sys, time
writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
sys.path.insert(0, "perfbench")
import rep
sys.dont_write_bytecode = writes
import orespec.harness as harness
spent = [0.0]
run_suite = harness.run_suite
def timed(*args, **kwargs):
    t0 = time.process_time()
    try:
        return run_suite(*args, **kwargs)
    finally:
        spent[0] += time.process_time() - t0
harness.run_suite = timed
out = rep.run(json.loads(sys.argv[1]))
print(json.dumps({"verify_s": out["verify_s"], "cpu_s": spent[0],
                  "shas": sorted({p["sha256"] for p in out["passes"]})}))
"""


def one(tree: str, spec: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
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

    runs = {"parent": [], "change": []}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(one(trees[side], spec))
        p, c = runs["parent"][-1], runs["change"][-1]
        print(f"round {i + 1:>2}: wall {p['verify_s']:.3f} -> {c['verify_s']:.3f} s, "
              f"cpu {p['cpu_s']:.3f} -> {c['cpu_s']:.3f} s", flush=True)

    for key, name in (("verify_s", "wall"), ("cpu_s", "cpu")):
        par = [r[key] for r in runs["parent"]]
        chg = [r[key] for r in runs["change"]]
        won = sum(c < p for p, c in zip(par, chg))
        print(f"{name:>4}: median {median(par):.3f} -> {median(chg):.3f} s "
              f"({median(chg) / median(par) - 1:+.1%}), "
              f"min {min(par):.3f} -> {min(chg):.3f} s ({min(chg) / min(par) - 1:+.1%}); "
              f"change lower in {won} of {args.rounds} rounds")
    for side in ("parent", "change"):
        shas = sorted({s for r in runs[side] for s in r["shas"]})
        print(f"{side} report sha256: {', '.join(shas)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
