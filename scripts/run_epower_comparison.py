#!/usr/bin/env python3
"""Compare mic / can / pseudo e-powers across group sizes and priors.

Computes the three statistics' exact e-powers per cell, by the same library
route as the `epower` command, together with the sandwich slack
(can - mic and pseudo - can, both of which should be nonnegative) and the
achieved KL of the canonical statistic's projection.
"""

import argparse
import contextlib
import sys

from maxent_evalues.cli import parse_prior
from maxent_evalues.diagnostics import e_powers
from maxent_evalues.priors import DEFAULT_DENSITY_GRID, DEFAULT_SCALE


def prior_list(text):
    return [parse_prior(label) for label in text.split(";") if label]


def int_list(text):
    return [int(v) for v in text.split(",")]


def run(args, out) -> None:
    print("prior\tk\tm\tmic\tcan\tpseudo\tcan_minus_mic\tpseudo_minus_can\tachieved_kl",
          file=out)
    for spec in args.priors:
        for m in args.m_values:
            sizes = (m,) * args.k
            priors = [spec] * args.k
            powers, achieved_kl = e_powers(priors, sizes, args.scale, args.grid_size)
            mic, can, pse = powers["mic"], powers["can"], powers["pseudo"]
            print(
                f"{spec.describe()}\t{args.k}\t{m}\t{mic:.8f}\t{can:.8f}"
                f"\t{pse:.8f}\t{can - mic:.3e}\t{pse - can:.3e}\t{achieved_kl:.3e}",
                file=out,
            )
            out.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--priors", type=prior_list, default="beta:1,1;beta:3,3;nml",
                        help="semicolon-separated prior labels, e.g. 'beta:2,2;nml'")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--m-values", type=int_list, default="5,10,20")
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument("--grid-size", type=int, default=DEFAULT_DENSITY_GRID)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        run(args, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
