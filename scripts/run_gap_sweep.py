#!/usr/bin/env python3
"""Sweep the gap diagnostic r over the three size regimes and emit TSV.

Regimes: m growing with k fixed, n fixed with k growing, and m = 5 * k**2
growing with k. One output row per (regime, k, m) cell, computed on a pool of
MAXENT_EVALUES_WORKERS processes (default: the CPU count).
"""

import argparse
import contextlib
import sys

from maxent_evalues.diagnostics import cells_n_fixed, cells_power_law, sweep
from maxent_evalues.priors import DEFAULT_DENSITY_GRID, DEFAULT_SCALE, parse_prior


def int_list(text):
    return [int(v) for v in text.split(",")]


def run(args, out) -> None:
    regimes = {
        "m_growing": tuple((args.k_fixed, m) for m in args.m_values),
        "n_fixed": cells_n_fixed(args.k_values, args.n_fixed),
        "power_law": cells_power_law(args.k_values),
    }
    print("regime\tk\tm\tr", file=out)
    for regime, cells in regimes.items():
        values = sweep(args.prior, cells, args.scale, args.density_grid)
        for (k, m), r in zip(cells, values):
            print(f"{regime}\t{k}\t{m}\t{r:.10e}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prior", type=parse_prior, default="beta:1,1")
    parser.add_argument("--m-values", type=int_list, default="10,20,40,80,160,320")
    parser.add_argument("--k-fixed", type=int, default=2)
    parser.add_argument("--n-fixed", type=int, default=1024)
    parser.add_argument("--k-values", type=int_list, default="2,4,8,16")
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument("--density-grid", type=int, default=DEFAULT_DENSITY_GRID)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        run(args, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
