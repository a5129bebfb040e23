#!/usr/bin/env python3
"""Sweep the gap diagnostic r over the three size regimes and emit TSV.

Regimes: m growing with k fixed, n fixed with k growing, and m = c * k**2
growing with k. One output row per (regime, k, m) cell.
"""

import argparse
import sys
from dataclasses import dataclass

from maxent_evalues.cli import parse_prior
from maxent_evalues.diagnostics import cells_n_fixed, cells_power_law, sweep
from maxent_evalues.priors import DEFAULT_DENSITY_GRID, DEFAULT_SCALE


@dataclass(frozen=True)
class GapSweepConfig:
    prior: str = "beta:1,1"
    m_values: tuple[int, ...] = (10, 20, 40, 80, 160, 320)
    k_fixed: int = 2
    n_fixed: int = 1024
    k_values: tuple[int, ...] = (2, 4, 8, 16)
    power_law_coeff: int = 5
    power_law_exponent: int = 2
    scale: int = DEFAULT_SCALE
    grid_size: int = DEFAULT_DENSITY_GRID
    workers: int | None = None


def run(config: GapSweepConfig, out=sys.stdout) -> None:
    prior = parse_prior(config.prior)
    regimes = {
        "m_growing": tuple((config.k_fixed, m) for m in config.m_values),
        "n_fixed": cells_n_fixed(config.k_values, config.n_fixed),
        "power_law": cells_power_law(
            config.k_values, config.power_law_coeff, config.power_law_exponent
        ),
    }
    print("regime\tk\tm\tr", file=out)
    for regime, cells in regimes.items():
        values = sweep(prior, cells, config.scale, config.grid_size, config.workers)
        for (k, m), r in zip(cells, values):
            print(f"{regime}\t{k}\t{m}\t{r:.10e}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prior", default="beta:1,1")
    parser.add_argument("--m-values", default="10,20,40,80,160,320")
    parser.add_argument("--k-fixed", type=int, default=2)
    parser.add_argument("--n-fixed", type=int, default=1024)
    parser.add_argument("--k-values", default="2,4,8,16")
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument("--grid-size", type=int, default=DEFAULT_DENSITY_GRID)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    config = GapSweepConfig(
        prior=args.prior,
        m_values=tuple(int(v) for v in args.m_values.split(",")),
        k_fixed=args.k_fixed,
        n_fixed=args.n_fixed,
        k_values=tuple(int(v) for v in args.k_values.split(",")),
        scale=args.scale,
        grid_size=args.grid_size,
        workers=args.workers,
    )
    if args.out:
        with open(args.out, "w") as fh:
            run(config, fh)
    else:
        run(config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
