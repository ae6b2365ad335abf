#!/usr/bin/env python3
"""Reproduce the K=64 search-iteration statistics table.

Generates N truncated-geometric symbols, builds a static model from the
empirical counts, and runs every boundary-array search once per symbol
that occurs, weighted by its count: a search's iteration count depends on
the decoded symbol alone.  Prints one row per strategy: the iteration
histogram (percent of symbols per iteration count) and the average.
"""

import argparse
import sys

from rangekit.bench import iteration_histogram
from rangekit.datagen import GenSpec, gen_sequence
from rangekit.search import STRATEGIES, strategy_compatible

REPLAY_STRATEGIES = tuple(s for s in STRATEGIES
                          if strategy_compatible(s, "linear", "static") is None)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=64)
    ap.add_argument("--n", type=int, default=10 ** 6)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    try:
        seq = gen_sequence(GenSpec("geometric", args.k, args.n, args.seed)).tolist()
        rows = [(strat, iteration_histogram(strat, seq, args.k))
                for strat in REPLAY_STRATEGIES]
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    print(f"K={args.k}  N={args.n}  seed={args.seed}  (truncated geometric)\n")
    print(f"{'strategy':<8}  {'ave.':>6}  histogram (iterations: %)")
    for strat, stats in rows:
        hist = "  ".join(f"{it}: {pct:.2f}" for it, pct in
                         sorted(stats.histogram.items())[:8])
        more = "  ..." if len(stats.histogram) > 8 else ""
        print(f"{strat:<8}  {stats.average:6.2f}  {hist}{more}")


if __name__ == "__main__":
    main()
