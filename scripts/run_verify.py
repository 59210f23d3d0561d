#!/usr/bin/env python3
"""Run the full verification suite and write both report formats.

    python scripts/run_verify.py [--jobs N] [--max-order M] [--out DIR]
"""

import argparse
import pathlib
import sys
import time

from orespec.cli import positive_int
from orespec.harness import CorpusConfig, build_corpus, render_machine, render_text, run_suite


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", type=positive_int, default=1)
    ap.add_argument("--max-order", type=positive_int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="reports")
    args = ap.parse_args()

    cfg = CorpusConfig(order_cap=args.max_order, seed=args.seed)
    corpus = build_corpus(cfg)
    print(f"corpus: {len(corpus)} instances")
    t0 = time.perf_counter()
    reports = run_suite(corpus, None, cfg, jobs=args.jobs)
    print(f"suite finished in {time.perf_counter() - t0:.1f}s")

    out = pathlib.Path(args.out)
    out.mkdir(exist_ok=True)
    (out / "report.txt").write_text(render_text(reports) + "\n")
    (out / "report.json").write_text(render_machine(reports) + "\n")
    print(f"wrote {out}/report.txt and {out}/report.json")
    clean = all(r.clean() for r in reports)
    print("clean" if clean else "COUNTEREXAMPLES FOUND")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
