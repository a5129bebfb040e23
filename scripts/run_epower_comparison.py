#!/usr/bin/env python3
"""Compare mic / can / pseudo e-powers across group sizes and priors.

Computes the three statistics' exact e-powers per cell, by the same library
route as the `epower` command, together with the sandwich slack
(can - mic and pseudo - can, both of which should be nonnegative) and the
achieved KL of the canonical statistic's projection.
"""

import argparse
import sys
from dataclasses import dataclass

from maxent_evalues.cli import parse_prior
from maxent_evalues.diagnostics import e_powers
from maxent_evalues.priors import DEFAULT_DENSITY_GRID, DEFAULT_SCALE, pseudo_null_density


@dataclass(frozen=True)
class EPowerConfig:
    priors: tuple[str, ...] = ("beta:1,1", "beta:3,3", "nml")
    k: int = 2
    m_values: tuple[int, ...] = (5, 10, 20)
    scale: int = DEFAULT_SCALE
    grid_size: int = DEFAULT_DENSITY_GRID


def run(config: EPowerConfig, out=sys.stdout) -> None:
    print("prior\tk\tm\tmic\tcan\tpseudo\tcan_minus_mic\tpseudo_minus_can\tachieved_kl",
          file=out)
    for label in config.priors:
        spec = parse_prior(label)
        for m in config.m_values:
            sizes = (m,) * config.k
            priors = [spec] * config.k
            density = pseudo_null_density(
                priors, sizes, scale=config.scale, grid_size=config.grid_size
            )
            powers, achieved_kl = e_powers(priors, sizes, density)
            mic, can, pse = powers["mic"], powers["can"], powers["pseudo"]
            print(
                f"{spec.describe()}\t{config.k}\t{m}\t{mic:.8f}\t{can:.8f}"
                f"\t{pse:.8f}\t{can - mic:.3e}\t{pse - can:.3e}\t{achieved_kl:.3e}",
                file=out,
            )
            out.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--priors", default=";".join(EPowerConfig.priors),
                        help="semicolon-separated prior labels, e.g. 'beta:2,2;nml'")
    parser.add_argument("--k", type=int, default=EPowerConfig.k)
    parser.add_argument("--m-values", default="5,10,20")
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument("--grid-size", type=int, default=DEFAULT_DENSITY_GRID)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    config = EPowerConfig(
        priors=tuple(p for p in args.priors.split(";") if p),
        k=args.k,
        m_values=tuple(int(v) for v in args.m_values.split(",")),
        scale=args.scale,
        grid_size=args.grid_size,
    )
    if args.out:
        with open(args.out, "w") as fh:
            run(config, fh)
    else:
        run(config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
