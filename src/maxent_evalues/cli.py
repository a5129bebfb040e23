"""Command-line interface.

Every subcommand prints a JSON report on stdout; errors are reported as
JSON on stderr with a nonzero exit code. Sweep-like subcommands can also
emit TSV rows for plotting.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .diagnostics import (
    WORST_CASE_BOUNDS,
    WORST_CASE_STEP,
    e_powers,
    gap_r,
    gap_r_prime,
    regret_curve,
    theorem1_diagnostic,
    worst_case_r_prime,
)
from .evariables import (
    POST_HOC_LEVEL,
    RIPR_GRID_SIZE,
    RIPR_MAX_ITER,
    RIPR_TOL,
    Statistic,
    _check_design,
    decide,
    pseudo_null,
    # Nothing here solves a projection; the name stays bound because
    # perfbench's tracer test checks that every module's ripr_solve reaches
    # one wrapper.
    ripr_solve,  # noqa: F401
)
from .models import Table
from .numerics import log_binomial_row
from .priors import DEFAULT_DENSITY_GRID, DEFAULT_SCALE, PriorSpec, canonical_priors, parse_prior
from .table_io import NETWORK_MODES, network_to_table, parse_network, parse_table


def _priors_for(args, k: int) -> list[PriorSpec]:
    texts = args.prior
    if len(texts) == 1:
        return [parse_prior(texts[0])] * k
    if len(texts) != k:
        expected = "1 prior" if k == 1 else f"1 or {k} priors"
        raise ValueError(f"expected {expected}, got {len(texts)}")
    return [parse_prior(t) for t in texts]


def _emit(payload: dict) -> None:
    # Serialized whole before writing, so a NaN or an infinity raises a
    # ValueError with nothing printed.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    sys.stdout.write(text + "\n")


def _evalue_fields(log_e: float, alpha: float) -> dict:
    """An e-value, the level-alpha decision on it and the post-hoc one.

    e is None where exp(log_e) overflows a float: JSON has no infinity, and
    log_e stays the authoritative value.
    """
    with np.errstate(over="ignore"):
        e = float(np.exp(log_e))
    return {
        "log_e": log_e,
        "e": e if np.isfinite(e) else None,
        "alpha": alpha,
        "decision": decide(log_e, alpha),
        "post_hoc_level": POST_HOC_LEVEL,
        "post_hoc_decision": "reject" if log_e >= 1.0 else "continue",
    }


# The flags of test and net-test that only some statistics read, with the
# defaults that apply where they are read, and the flags each statistic reads.
# On those two commands they default to None, so that a flag the chosen
# statistic would ignore is refused.
_FLAG_DEFAULTS = {
    "prior": ["uniform"],
    "ripr_grid": RIPR_GRID_SIZE,
    "ripr_tol": RIPR_TOL,
    "ripr_max_iter": RIPR_MAX_ITER,
    "scale": DEFAULT_SCALE,
    "density_grid": DEFAULT_DENSITY_GRID,
    "palt": None,
}
_RIPR_FLAGS = ("ripr_grid", "ripr_tol", "ripr_max_iter")
_READ_BY = {
    "mic": ("prior",),
    "can": ("prior", *_RIPR_FLAGS),
    "pseudo": ("prior", "scale", "density_grid"),
    "point": ("palt", *_RIPR_FLAGS),
}


def _statistic_flags(args) -> None:
    """Refuse a flag the chosen statistic does not read; give the flags it
    reads their defaults where they were not set."""
    for name, default in _FLAG_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in _READ_BY[args.statistic]:
            readers = ", ".join(s for s, read in _READ_BY.items() if name in read)
            raise ValueError(
                f"--{name.replace('_', '-')} is read only by --statistic {readers}, "
                f"not {args.statistic}"
            )


def _run_test(table: Table, args) -> dict:
    _statistic_flags(args)
    source = "--table" if args.command == "test" else "--network"
    _check_design(sum(table.sizes), table.k, f"lower the group sizes ({source})")
    # As decide checks it, but before the statistic is built.
    if not 0 < args.alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    inputs = {
        "groups": [{"n": n, "ones": o} for n, o in table.groups],
        "statistic": args.statistic,
    }
    if args.statistic != "point":
        priors = _priors_for(args, table.k)
        inputs["priors"] = [s.describe() for s in priors]
    if args.statistic == "mic":
        statistic = Statistic.mic(table.sizes, priors)
    elif args.statistic == "can":
        statistic = Statistic.can(
            table.sizes, priors, args.ripr_grid, args.ripr_tol, args.ripr_max_iter
        )
    elif args.statistic == "pseudo":
        # The density first, so that its checks run before anything else.
        log_w_ps = pseudo_null(table.sizes, priors, args.scale, args.density_grid)
        statistic = Statistic.mic(table.sizes, canonical_priors(priors))
    else:
        if args.palt is None:
            raise ValueError("--statistic point requires --palt")
        palt = _parse_palt(args.palt, table.k)
        for i, ((n, ones), p) in enumerate(zip(table.groups, palt)):
            if (p == 0.0 and ones > 0) or (p == 1.0 and ones < n):
                raise ValueError(
                    f"group {i}: an alternative mean of {p:g} cannot produce "
                    f"{ones} ones in {n} trials"
                )
        inputs["p_alt"] = list(palt)
        statistic = Statistic.point(
            table.sizes, palt, args.ripr_grid, args.ripr_tol, args.ripr_max_iter
        )
    c0 = sum(table.ones)
    pseudo = args.statistic == "pseudo"
    if pseudo:
        # Not an e-variable: mic's group terms, with W_ps in place of W0 at c0;
        # not mic's log_e, which is +inf where its W0 underflows (ROADMAP finding 3).
        log_e = sum(float(a[o]) for a, o in zip(statistic.group_terms, table.ones))
        log_e += float(log_binomial_row(sum(table.sizes))[c0] - log_w_ps[c0])
    else:
        log_e = statistic.log_e(table.ones)
    if not np.isfinite(log_e):
        # mic's log_e is +inf where its W0 underflows (ROADMAP finding 3).
        # JSON has no infinity, and the report's other fields rest on log_e.
        raise ValueError(
            f"--statistic {args.statistic} gives log_e = {log_e} at total count {c0}; "
            "a report needs a finite log_e"
        )
    payload = {
        "statistic_kind": "pseudo" if pseudo else statistic.kind,
        "is_evariable": not pseudo,
        "c1": list(table.ones),
        "c0": c0,
        **_evalue_fields(log_e, args.alpha),
        "inputs": inputs,
    }
    if statistic.achieved_kl is not None:
        payload["achieved_kl"] = statistic.achieved_kl
    return payload


def _numbers(text: str, flag: str, kind=float) -> list:
    """The comma-separated values of a flag; one that kind does not read is
    refused by the flag's name."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} must be comma-separated {what}, got {text!r}") from None


def _parse_palt(text: str, k: int) -> tuple[float, ...]:
    vals = _numbers(text, "--palt")
    if len(vals) == 1:
        vals = vals * k
    if len(vals) != k:
        raise ValueError(f"expected 1 or {k} alternative parameters")
    return tuple(vals)


def cmd_test(args) -> dict:
    return _run_test(parse_table(args.table, args.format), args)


def cmd_net_test(args) -> dict:
    if args.constrained_block is not None and args.mode != "pcm_vs_er_bipartite":
        raise ValueError(
            f"--constrained-block is read only by --mode pcm_vs_er_bipartite, not {args.mode}"
        )
    net = parse_network(args.network, args.mode, args.constrained_block)
    table = network_to_table(net)
    payload = _run_test(table, args)
    payload["inputs"]["mode"] = args.mode
    return payload


# Group sizes when --sizes is not given: --k groups of --m each.
_DEFAULT_K = 2
_DEFAULT_M = {"epower": 10, "gap": 50, "rprime": 50}


def _sizes(args) -> tuple[int, ...]:
    if args.sizes is not None:
        if args.k is not None or args.m is not None:
            raise ValueError("--sizes cannot be combined with --k or --m")
        sizes = tuple(_numbers(args.sizes, "--sizes", int))
        _check_design(sum(sizes), len(sizes), "lower --sizes")
        return sizes
    k = _DEFAULT_K if args.k is None else args.k
    m = _DEFAULT_M[args.command] if args.m is None else args.m
    # Checked before the k sizes exist.
    _check_design(k * m, k, "lower --k or --m")
    return (m,) * k


def _design(args):
    """The group sizes and priors the arguments name, and the report fields
    that describe them."""
    sizes = _sizes(args)
    priors = _priors_for(args, len(sizes))
    described = {"sizes": list(sizes), "priors": [s.describe() for s in priors]}
    return sizes, priors, described


def cmd_epower(args) -> dict:
    sizes, priors, payload = _design(args)
    powers, achieved_kl = e_powers(
        priors, sizes, args.scale, args.density_grid,
        args.ripr_grid, args.ripr_tol, args.ripr_max_iter,
    )
    mic, can, pseudo = powers["mic"], powers["can"], powers["pseudo"]
    return {
        **payload,
        "e_power": powers,
        "sandwich_ok": bool(mic <= can + 1e-8 and can <= pseudo + 2e-8),
        "achieved_kl": achieved_kl,
    }


def cmd_gap(args) -> dict:
    sizes, priors, payload = _design(args)
    r = gap_r(priors, sizes, args.scale, args.density_grid)
    return {**payload, "scale": args.scale, "r": r}


# The flags of rprime that only --worst-case reads, with their defaults there.
_WORST_CASE_FLAGS = {
    "grid_step": WORST_CASE_STEP,
    "lo": WORST_CASE_BOUNDS[0],
    "hi": WORST_CASE_BOUNDS[1],
}


def cmd_rprime(args) -> dict:
    if args.worst_case and args.palt is not None:
        raise ValueError("--palt cannot be combined with --worst-case")
    if not args.worst_case and args.palt is None:
        raise ValueError("rprime needs --palt or --worst-case")
    for name, default in _WORST_CASE_FLAGS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif not args.worst_case:
            raise ValueError(f"--{name.replace('_', '-')} is read only with --worst-case")
    sizes, priors, payload = _design(args)
    payload["scale"] = args.scale
    if args.worst_case:
        value, argmax = worst_case_r_prime(
            priors, sizes, args.scale, args.density_grid,
            grid_step=args.grid_step, bounds=(args.lo, args.hi),
        )
        payload["worst_case_r_prime"] = value
        payload["argmax"] = list(argmax)
    else:
        palt = _parse_palt(args.palt, len(sizes))
        payload["p_alt"] = list(palt)
        payload["r_prime"] = gap_r_prime(
            palt, priors, sizes, args.scale, args.density_grid
        )
    return payload


def cmd_regret(args) -> dict:
    ms = _numbers(args.m_list, "--m-list", int)
    (prior,) = _priors_for(args, 1)
    # Checked before --palt is read out to k values.
    _check_design(args.k * max(ms), args.k, "lower --k or the largest m (--m-list)")
    rows = []
    curves = []
    for text in args.palt:
        curve = regret_curve(
            _parse_palt(text, args.k), prior, ms, args.candidate,
            grid_size=args.ripr_grid, tol=args.ripr_tol, max_iter=args.ripr_max_iter,
        )
        palt = list(curve.p_alt)
        rows += [{"p_alt": palt, "m": m, "regret": v} for m, v in curve.points]
        curves.append({"p_alt": palt, "fitted_a": curve.fitted_a,
                       "fitted_b": curve.fitted_b, "residual": curve.residual})
    payload = {
        "prior": prior.describe(),
        "candidate": args.candidate,
        "points": rows,
        "curves": curves,
    }
    if args.tsv:
        with open(args.tsv, "w") as fh:
            fh.write("p_alt\tm\tregret\n")
            for row in rows:
                fh.write(
                    f"{','.join(str(v) for v in row['p_alt'])}\t{row['m']}\t{row['regret']!r}\n"
                )
        payload["tsv"] = args.tsv
    return payload


def cmd_theorem1(args) -> dict:
    (spec,) = _priors_for(args, 1)
    tv = theorem1_diagnostic(spec, args.m, args.bins)
    return {"prior": spec.describe(), "m": args.m, "bins": args.bins, "tv": tv}


def cmd_continue(args) -> dict:
    log_es = []
    for item in args.evalue:
        try:
            value = float(item)
        except ValueError:
            with open(item) as fh:
                # Integers are read as floats, so one beyond the float range
                # reads as infinite, as 1e400 does.
                payload = json.load(fh, parse_int=float)
            if not isinstance(payload, dict):
                raise ValueError(f"{item}: a report file must hold a JSON object")
            if payload.get("is_evariable") is False:
                raise ValueError(
                    f"{item}: {payload.get('statistic_kind')} report is not an "
                    "e-variable and cannot be combined"
                )
            log_e = payload.get("log_e")
            # json.load reads Infinity, NaN and 1e400 as non-finite floats.
            if not (isinstance(log_e, float) and -np.inf < log_e < np.inf):
                raise ValueError(f"{item}: report needs a finite numeric log_e, got {log_e!r}")
            log_es.append(log_e)
            continue
        if not 0 < value < np.inf:
            raise ValueError(f"e-value must be positive and finite: {item}")
        log_es.append(float(np.log(value)))
    return {**_evalue_fields(sum(log_es), args.alpha), "components": len(log_es)}


def _add_prior_args(p):
    p.add_argument("--prior", nargs="+", default=_FLAG_DEFAULTS["prior"],
                   help="uniform | nml | beta:a,b (one shared or one per group)")


def _add_ripr_args(p):
    p.add_argument("--ripr-grid", type=int, default=_FLAG_DEFAULTS["ripr_grid"])
    p.add_argument("--ripr-tol", type=float, default=_FLAG_DEFAULTS["ripr_tol"])
    p.add_argument("--ripr-max-iter", type=int, default=_FLAG_DEFAULTS["ripr_max_iter"])


def _add_size_args(p, command):
    p.add_argument("--k", type=int, default=None,
                   help=f"number of groups of size --m (default {_DEFAULT_K})")
    p.add_argument("--m", type=int, default=None,
                   help=f"size of each group (default {_DEFAULT_M[command]})")
    p.add_argument("--sizes", default=None,
                   help="comma-separated group sizes, instead of --k and --m")


def _add_density_args(p):
    p.add_argument("--scale", type=int, default=_FLAG_DEFAULTS["scale"])
    p.add_argument("--density-grid", type=int, default=_FLAG_DEFAULTS["density_grid"])


def _add_test_args(p):
    """The arguments test and net-test share: the statistic and the flags
    that only some statistics read, which default to None (_FLAG_DEFAULTS)."""
    p.add_argument("--statistic", choices=("mic", "can", "pseudo", "point"),
                   default="mic")
    p.add_argument("--palt", default=None,
                   help="comma-separated alternative means (--statistic point only)")
    p.add_argument("--alpha", type=float, default=0.05)
    _add_prior_args(p)
    _add_ripr_args(p)
    _add_density_args(p)
    p.set_defaults(**dict.fromkeys(_FLAG_DEFAULTS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxent-evalues",
        description="E-value tests between maximum entropy models on 2xk binary tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="e-value test of an observed table")
    p.add_argument("--table", required=True)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    _add_test_args(p)

    p = sub.add_parser("net-test", help="network test via table reduction")
    p.add_argument("--network", required=True)
    p.add_argument("--mode", required=True, choices=NETWORK_MODES)
    p.add_argument("--constrained-block", default=None)
    _add_test_args(p)

    p = sub.add_parser("epower", help="exact e-powers of mic/can/pseudo")
    _add_size_args(p, "epower")
    _add_prior_args(p)
    _add_ripr_args(p)
    _add_density_args(p)

    p = sub.add_parser("gap", help="exact-vs-pseudo gap r")
    _add_size_args(p, "gap")
    _add_prior_args(p)
    _add_density_args(p)

    p = sub.add_parser("rprime", help="gap under a point alternative")
    _add_size_args(p, "rprime")
    p.add_argument("--palt", default=None)
    p.add_argument("--worst-case", action="store_true")
    p.add_argument("--grid-step", type=float, default=None,
                   help=f"(--worst-case only; default {WORST_CASE_STEP})")
    p.add_argument("--lo", type=float, default=None,
                   help=f"(--worst-case only; default {WORST_CASE_BOUNDS[0]})")
    p.add_argument("--hi", type=float, default=None,
                   help=f"(--worst-case only; default {WORST_CASE_BOUNDS[1]})")
    _add_prior_args(p)
    _add_density_args(p)

    p = sub.add_parser("regret", help="regret curve and fitted log-slope")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--palt", nargs="+", required=True)
    p.add_argument("--m-list", required=True, help="comma-separated m values")
    p.add_argument("--candidate", choices=("gro_mic", "gro_can", "pseudo"),
                   default="gro_mic")
    p.add_argument("--tsv", default=None)
    _add_prior_args(p)
    _add_ripr_args(p)

    p = sub.add_parser("theorem1", help="prior-convergence TV diagnostic")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bins", type=int, default=20)
    _add_prior_args(p)

    p = sub.add_parser("continue", help="combine independent e-values")
    p.add_argument("evalue", nargs="+",
                   help="e-values or report JSON files to multiply")
    p.add_argument("--alpha", type=float, default=0.05)

    return parser


# One parser serves every call of main in a process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # The command's function is looked up at each call, not bound when the
    # parser was built, so that a name rebound since then is the one run.
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _emit(fn(args))
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
