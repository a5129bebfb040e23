"""Output checks. An op whose output fails any of them counts as failed.

Every report must be strict standard JSON: `NaN` and `Infinity` are refused.
Values are then checked, in this order of preference, against

- an exact oracle: the microcanonical e-value under uniform priors, in
  integer arithmetic, to 1e-10;
- the frozen r values of acceptance criterion 5, at rel 1e-3;
- references recorded from the library and kept in `references.json`, at
  rel 1e-3 with an absolute floor of 1e-12 (1e-9 for `achieved_kl`, which
  the solver only resolves to its tolerance).
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-3
ABS_FLOOR = 1e-12
KL_ABS_FLOOR = 1e-9
ORACLE_TOL = 1e-10


class CheckError(Exception):
    """An output that is not what the program should have printed."""


def _reject_constant(name):
    raise CheckError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def _count_sums(sizes, total: int) -> int:
    """Number of vectors u with 0 <= u_i <= sizes[i] and sum(u) == total."""
    ways = [1]
    for m in sizes:
        prefix = [0]
        for w in ways:
            prefix.append(prefix[-1] + w)
        width = len(ways) + m
        ways = [prefix[min(j, len(ways) - 1) + 1] - prefix[max(j - m, 0)]
                for j in range(width)]
    return ways[total] if total < len(ways) else 0


def mic_uniform_log_e(groups) -> float:
    """Exact log microcanonical GRO e-value under uniform priors.

    With uniform priors the e-value is the integer ratio
    C(n, n1) / (prod_i C(n_i, c_i) * #{u : 0 <= u_i <= n_i, sum u = n1}).
    """
    sizes = [n for n, _ in groups]
    ones = [c for _, c in groups]
    num = math.comb(sum(sizes), sum(ones))
    den = math.prod(math.comb(n, c) for n, c in groups) * _count_sums(sizes, sum(ones))
    return math.log(num) - math.log(den)


def _close(value, ref, floor=ABS_FLOOR, rel=REL_TOL) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value - ref) <= rel * abs(ref) + floor)


def _expect(name, value, ref, floor=ABS_FLOOR, rel=REL_TOL):
    if not _close(value, ref, floor, rel):
        raise CheckError(f"{name}={value!r}, expected {ref!r}")


def extract(report: dict) -> dict:
    """The numbers of a report that are compared with a reference."""
    if "e_power" in report:
        out = {f"e_power.{k}": v for k, v in report["e_power"].items()}
        out["achieved_kl"] = report["achieved_kl"]
        return out
    for name in ("log_e", "r", "r_prime", "worst_case_r_prime"):
        if name in report:
            out = {name: report[name]}
            if "achieved_kl" in report:
                out["achieved_kl"] = report["achieved_kl"]
            if "argmax" in report:
                out.update({f"argmax.{i}": v for i, v in enumerate(report["argmax"])})
            return out
    raise CheckError("report has no checked value")


def _check_decision(report: dict):
    log_e, e, alpha = report["log_e"], report["e"], report["alpha"]
    if not _close(e, math.exp(log_e), 0.0, 1e-9):
        raise CheckError(f"e={e!r} is not exp(log_e={log_e!r})")
    expected = "reject" if log_e >= -math.log(alpha) else "continue"
    if report["decision"] != expected:
        raise CheckError(f"decision {report['decision']!r} at log_e={log_e!r}")


def check(op, stdout: str, references: dict) -> None:
    """Raise CheckError unless `stdout` is the right report for `op`."""
    report = strict_json(stdout)
    if not isinstance(report, dict):
        raise CheckError("report is not a JSON object")
    if "log_e" in report:
        _check_decision(report)
    if "e_power" in report and report.get("sandwich_ok") is not True:
        raise CheckError("sandwich_ok is not true")
    oracle = op.oracle or {}
    if "mic_uniform" in oracle:
        _expect("log_e", report["log_e"], mic_uniform_log_e(oracle["mic_uniform"]),
                ORACLE_TOL, ORACLE_TOL)
        return
    if "frozen_r" in oracle:
        _expect("r", report["r"], oracle["frozen_r"])
        return
    if op.key not in references:
        raise CheckError("no reference recorded for this op")
    values = extract(report)
    ref = references[op.key]
    if set(values) != set(ref):
        raise CheckError(f"fields {sorted(values)} != reference {sorted(ref)}")
    for name, r in ref.items():
        _expect(name, values[name], r, KL_ABS_FLOOR if name == "achieved_kl" else ABS_FLOOR)
