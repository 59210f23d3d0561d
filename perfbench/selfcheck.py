#!/usr/bin/env python3
"""Self-checks for the benchmark itself; run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. A corpus with one corrupted table cell (`harness.inject_table_fault`)
   must fail the correctness gate with failed_frac > 0.
2. The same seed must give the same corpus order, seed 0 the CLI's order,
   and a nonzero seed must still give the pinned report bytes.
3. The named counts must repeat exactly between two traced repetitions.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

from rep import make_corpus
from run import Gate, repeated_counts, spawn

COUNTS = ("localization.mult_sets", "localization.den_sets",
          "monomial.an_products", "monomial.an_localize_calls")


def main() -> int:
    results = []
    base = {"workload": "verify-serial", "mode": "run", "trace": False}

    gate = Gate("verify-serial")
    gate.check(spawn(dict(base, seed=0, fault=True)))
    results.append(("fault injection gives failed_frac > 0",
                    gate.failed > 0, f"{gate.failed} of {gate.attempted} outcomes failed"))

    sys.path.insert(0, os.path.abspath("src"))
    from orespec.harness import CorpusConfig, build_corpus

    cfg = CorpusConfig()
    kinds = ("finite", "monomial", "an")

    def order(seed):
        return [inst.provenance for inst in make_corpus(cfg, kinds, seed, False)]

    canonical = [inst.provenance for inst in build_corpus(cfg)]
    results.append(("same seed gives the same permutation",
                    order(7) == order(7) != order(8) and order(0) == canonical
                    and sorted(order(7)) == sorted(canonical),
                    "seed 7 twice equal, seed 8 differs, seed 0 is the CLI order"))

    gate = Gate("verify-serial")
    gate.check(spawn(dict(base, seed=11)))
    results.append(("seed 11 passes the gate with the seed-0 report", gate.failed == 0,
                    f"sha256 {' '.join(sorted(gate.shas))}"))

    traced = [spawn(dict(base, seed=3, trace=True)) for _ in range(2)]
    unsteady = repeated_counts(traced)
    named = {k: traced[0]["trace"]["counts"].get(k) for k in COUNTS}
    results.append(("counts repeat between two traced repetitions",
                    not unsteady and all(named.values()),
                    f"{named}" + (f"; differ: {unsteady}" if unsteady else "")))

    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
