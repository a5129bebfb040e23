#!/usr/bin/env python3
"""Fit the logarithmic growth a*log(m) + b of the regret over a parameter grid.

For each prior parameter gamma and each alternative (p_a, p_b) on an interior
grid, the regret of the microcanonical statistic against the point-tailored
statistic is computed at several group sizes m and a line in log m is fitted.
Emits one TSV row per (gamma, p_a, p_b) with the fitted slope and intercept.
"""

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from maxent_evalues.diagnostics import regret_curve
from maxent_evalues.priors import PriorSpec


@dataclass(frozen=True)
class SlopeConfig:
    gammas: tuple[float, ...] = (0.5, 1.0, 1.5)
    m_values: tuple[int, ...] = (600, 800, 1000, 1200, 1400, 1600, 1800)
    grid_lo: float = 0.1
    grid_hi: float = 0.9
    grid_step: float = 0.2


def run(config: SlopeConfig, out=sys.stdout) -> None:
    grid = np.arange(config.grid_lo, config.grid_hi + 1e-12, config.grid_step)
    print("gamma\tp_a\tp_b\tslope\tintercept\tresidual", file=out)
    for gamma in config.gammas:
        spec = PriorSpec.from_beta(gamma, gamma)
        for p_a in grid:
            for p_b in grid:
                curve = regret_curve((p_a, p_b), spec, config.m_values)
                a, b, resid = curve.fitted_a, curve.fitted_b, curve.residual
                print(
                    f"{gamma}\t{p_a:.2f}\t{p_b:.2f}\t{a:.4f}\t{b:.4f}\t{resid:.2e}",
                    file=out,
                )
                out.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gammas", default="0.5,1,1.5")
    parser.add_argument("--m-values", default="600,800,1000,1200,1400,1600,1800")
    parser.add_argument("--grid-lo", type=float, default=0.1)
    parser.add_argument("--grid-hi", type=float, default=0.9)
    parser.add_argument("--grid-step", type=float, default=0.2)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    config = SlopeConfig(
        gammas=tuple(float(v) for v in args.gammas.split(",")),
        m_values=tuple(int(v) for v in args.m_values.split(",")),
        grid_lo=args.grid_lo,
        grid_hi=args.grid_hi,
        grid_step=args.grid_step,
    )
    if args.out:
        with open(args.out, "w") as fh:
            run(config, fh)
    else:
        run(config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
