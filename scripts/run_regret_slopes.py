#!/usr/bin/env python3
"""Fit the logarithmic growth a*log(m) + b of the regret over a parameter grid.

For each prior parameter gamma and each alternative (p_a, p_b) on an interior
grid, the regret of the microcanonical statistic against the point-tailored
statistic is computed at several group sizes m and a line in log m is fitted.
Emits one TSV row per (gamma, p_a, p_b) with the fitted slope and intercept.
"""

import argparse
import contextlib
import sys

import numpy as np

from maxent_evalues.diagnostics import regret_curve
from maxent_evalues.priors import PriorSpec


def float_list(text):
    return [float(v) for v in text.split(",")]


def int_list(text):
    return [int(v) for v in text.split(",")]


def run(args, out) -> None:
    grid = np.arange(args.grid_lo, args.grid_hi + 1e-12, args.grid_step)
    print("gamma\tp_a\tp_b\tslope\tintercept\tresidual", file=out)
    for gamma in args.gammas:
        spec = PriorSpec.from_beta(gamma, gamma)
        for p_a in grid:
            for p_b in grid:
                curve = regret_curve((p_a, p_b), spec, args.m_values)
                a, b, resid = curve.fitted_a, curve.fitted_b, curve.residual
                print(
                    f"{gamma}\t{p_a:.2f}\t{p_b:.2f}\t{a:.4f}\t{b:.4f}\t{resid:.2e}",
                    file=out,
                )
                out.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gammas", type=float_list, default="0.5,1,1.5")
    parser.add_argument("--m-values", type=int_list,
                        default="600,800,1000,1200,1400,1600,1800")
    parser.add_argument("--grid-lo", type=float, default=0.1)
    parser.add_argument("--grid-hi", type=float, default=0.9)
    parser.add_argument("--grid-step", type=float, default=0.2)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        run(args, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
