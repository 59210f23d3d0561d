"""One repetition of a benchmark workload, in a fresh interpreter.

Usage (run.py starts it; the engine's caches start cold as they do for
`orespec verify`):

    python perfbench/rep.py '{"mode": "run", "workload": "verify-serial",
                              "seed": 3, "trace": false}'

`mode` is "setup" (import and build the corpus, then exit) or "run".  The
last line of standard output is one JSON object with the measurements and,
for every run_suite pass, the facts the correctness gate needs.  Times
named `t_*` are absolute `time.monotonic()` readings, which on Linux share
one clock with the parent process, so the parent can measure set-up from
before the interpreter started.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time

# name -> (worker count passed to run_suite, run_suite passes per process,
#          instance kinds kept from the default corpus)
WORKLOADS = {
    "verify-serial": (1, 1, ("finite", "monomial", "an")),
    "verify-jobs2": (2, 1, ("finite", "monomial", "an")),
    "finite-repeat": (1, 3, ("finite",)),
}


def permutation(kinds: list[str], seed: int) -> list[int]:
    """Corpus order: seed 0 is the CLI's order; any other seed shuffles the
    instances within each track and keeps the tracks in the CLI's order.

    A full shuffle would scatter the three heavy `an` instances over the
    pool's chunks, and the resulting spread of jobs=2 wall times (a
    quarter of the median between quartiles) would swamp any bound; within
    tracks the order still changes while the scheduling stays comparable.
    """
    rng = random.Random(seed)
    order = []
    for kind in dict.fromkeys(kinds):
        block = [i for i, k in enumerate(kinds) if k == kind]
        if seed:
            rng.shuffle(block)
        order += block
    return order


def make_corpus(cfg, kinds, seed: int, fault: bool):
    from orespec.harness import build_corpus, inject_table_fault

    corpus = [inst for inst in build_corpus(cfg) if inst.kind in kinds]
    if fault:
        corpus[0] = inject_table_fault(corpus[0], cfg)
    return [corpus[i] for i in permutation([inst.kind for inst in corpus], seed)]


def cache_entries() -> int:
    """Entries held by the engine's functools caches in this process."""
    total = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "orespec" or name.startswith("orespec.")):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == name:
                total += obj.cache_info().currsize
    return total


def maxrss_kb() -> tuple[int, int]:
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def gate_facts(reports) -> dict:
    from orespec.harness import render_machine

    text = render_machine(reports)
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "ids": [r.theorem_id for r in reports],
        "pairs": sum(r.considered for r in reports),
        "counterexamples": sum(len(r.counterexamples) for r in reports),
        "busy_s": sum(r.wall_ms for r in reports) / 1000,
    }


def run(spec: dict) -> dict:
    from orespec.harness import CorpusConfig, run_suite  # set-up includes the package import

    jobs, passes, kinds = WORKLOADS[spec["workload"]]
    cfg = CorpusConfig()
    fault = spec.get("fault", False)
    corpora = [make_corpus(cfg, kinds, spec["seed"], fault)]
    out = {"t_ready": time.monotonic()}
    if spec["mode"] == "setup":
        return out
    corpora += [make_corpus(cfg, kinds, spec["seed"], fault) for _ in range(passes - 1)]

    tracer = dump_dir = None
    if spec["trace"]:
        import spans

        if jobs > 1:
            dump_dir = f".perfbench_spans_{os.getpid()}"
            os.makedirs(dump_dir, exist_ok=True)
        tracer = spans.install(dump_dir)

    out.update(jobs=jobs, verify_s=0.0, passes=[])
    try:
        for corpus in corpora:
            t0 = time.perf_counter()
            reports = run_suite(corpus, cfg=cfg, jobs=jobs)
            out["verify_s"] += time.perf_counter() - t0
            out["passes"].append(gate_facts(reports))
            if len(out["passes"]) == 1:
                first_rss = maxrss_kb()[0]
    finally:
        if dump_dir:
            tracer.collect()
            shutil.rmtree(dump_dir, ignore_errors=True)
    self_kb, children_kb = maxrss_kb()
    # Peak of the process tree: this process plus `jobs` workers, each
    # counted at the largest worker peak (RUSAGE_CHILDREN keeps the maximum
    # over reaped children, not the sum).  Serial runs have no children.
    out["peak_rss_mb"] = (self_kb + jobs * children_kb) / 1024
    out["rss_growth_mb"] = (self_kb - first_rss) / 1024
    out["cache_entries"] = cache_entries()
    if tracer:
        out["trace"] = tracer.state()
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
