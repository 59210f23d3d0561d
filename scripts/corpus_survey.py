#!/usr/bin/env python3
"""Survey the default corpus: per-ring structure and localization counts.

Useful for eyeballing what the verification suite actually quantifies over.
`sigma` counts the distinct localization maps of a ring's denominator sets:
a localization is the factor map at the set's vanishing ideal, so the sets
with one vanishing ideal share one.  The totals are over every finite
instance, and over the first instance of each isomorphism class, the tables
a run evaluates.  A reader that closes the output early (`| head -1`) ends
the survey with exit code 2 and no traceback, as it ends the CLI.
"""

import argparse
import sys
from collections import Counter

from orespec.cli import closed_stdout, positive_int
from orespec.finring import content, is_commutative
from orespec.harness import CorpusConfig, build_corpus, class_heads
from orespec.ideals import all_ideal_masks, is_semiprime_ring, min_prime_masks_over
from orespec.localization import left_denominator_sets, localize, mult_set_masks


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-order", type=positive_int, default=16)
    args = ap.parse_args()
    try:
        survey(args.max_order)
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        return closed_stdout()
    return 0


def survey(max_order: int) -> None:
    """Print one row per finite instance of the corpus at this order cap,
    then the totals."""
    cfg = CorpusConfig(order_cap=max_order)
    corpus = build_corpus(cfg)
    finite = [(i.provenance, i.build(cfg.order_cap)) for i in corpus if i.kind == "finite"]
    contents = len({content(r) for _, r in finite})
    heads = class_heads([r for _, r in finite])
    print(f"{len(corpus)} instances; {len(finite)} finite, "
          f"{contents} distinct table contents (what a run interns on), "
          f"{len(set(heads))} isomorphism classes (what a run evaluates)")
    print(f"{'provenance':<52} {'ord':>3} {'comm':>4} {'semi':>4} "
          f"{'ideals':>6} {'minpr':>5} {'msets':>5} {'dens':>4} {'sigma':>5}")
    tally = Counter()
    for i, (prov, r) in enumerate(finite):
        mins = min_prime_masks_over(r, 1 << r.zero)
        msets = mult_set_masks(r, cfg.exhaustive_mult_order)
        dens = left_denominator_sets(r, cfg.exhaustive_mult_order)
        sigmas = len({id(localize(r, s)) for s in dens})
        tally["ideals"] += len(all_ideal_masks(r))
        tally["mult sets"] += len(msets)
        tally["denominator sets"] += len(dens)
        tally["distinct sigma"] += sigmas
        if heads[i] == i:
            tally["class-head denominator sets"] += len(dens)
            tally["class-head distinct sigma"] += sigmas
        print(f"{prov:<52} {r.order:>3} {str(is_commutative(r)):>4} "
              f"{str(is_semiprime_ring(r)):>4} {len(all_ideal_masks(r)):>6} "
              f"{len(mins):>5} {len(msets):>5} {len(dens):>4} {sigmas:>5}")
    print()
    for key, total in sorted(tally.items()):
        print(f"total {key}: {total}")


if __name__ == "__main__":
    sys.exit(main())
