"""Benchmark of the maxent-evalues CLI.

    python3 perfbench/run.py --workload {tables,epower,gap} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the library from
`src/`; nothing is installed. Each run starts worker processes with
MAXENT_EVALUES_WORKERS=1 and one BLAS thread (two threads were slower and
noisier on a shared 2-core machine):
SETUP_PROBES of them only set up, which times set-up, and the last one also
measures. It drives the CLI in-process in a closed loop with one client.
Every time reported is scaled to a reference speed of the machine (see
speed.py); the measured times are in the run record.
See BENCHMARK.json and design.json for the workloads and metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). The line before it is the run's full record:
machine, versions, op counts, failures and their reasons.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ, MAXENT_EVALUES_WORKERS="1")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def tail(values):
    """Highest whole percentile with at least TAIL_BEYOND samples above it.

    Nearest-rank percentile. Returns (percentile, value, samples beyond); with
    too few samples it is the maximum, at percentile 100 with none beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = math.floor(100 * (n - TAIL_BEYOND) / n)
    if q <= 0:
        return 100, ordered[-1], 0
    rank = math.ceil(q * n / 100)
    return q, ordered[rank - 1], n - rank


def tail_mean(values) -> float:
    """Mean of the values beyond the percentile `tail` picks (the maximum if
    there are none): a mean of ten or more op times, steadier than the one op
    time at the percentile."""
    return statistics.fmean(sorted(values)[-max(tail(values)[2], 1):])


def _start(args, setup_only: bool, deadline: float):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    kernel_before = speed.kernel_s()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError(f"worker set-up failed (exit {proc.wait(timeout=10)})")
        kernel_after = float(proc.stdout.readline())
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return setup_s, [kernel_before, kernel_after], rest


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def summarize(args, setups, record) -> tuple[dict, dict]:
    """(contract result, full record) from the worker's record. `setups` holds
    each set-up probe's measured time and the kernel times around it."""
    ops = record["ops"]
    seconds = [s for _, _, s, _ in ops]
    factor = speed.factor(record["kernel_s"])
    scaled = [s * factor for s in seconds]
    # Each set-up probe is scaled by the kernel times around it: set-up comes
    # before the ops, and the machine's speed may change in between.
    setup_s = statistics.median(s for s, _ in setups)
    setup_scaled = statistics.median(s * speed.factor(ks) for s, ks in setups)
    failed = [[key, reason] for key, _, _, reason in ops if reason]
    q, tail_s, beyond = tail(scaled)
    by_kind = {}
    for _, kind, s, _ in ops:
        by_kind.setdefault(kind, []).append(s * factor)
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        **record["provenance"],
        "ops_attempted": len(ops),
        "ops_by_type": dict(Counter(kind for _, kind, _, _ in ops)),
        "op_ms_p50_by_type": {k: 1000 * statistics.median(v) for k, v in sorted(by_kind.items())},
        "op_ms_p50": 1000 * statistics.median(scaled),
        "op_ms_tail_percentile": q,
        "op_ms_tail_percentile_ms": 1000 * tail_s,
        "op_ms_tail_samples_beyond": beyond,
        "failed_frac": len(failed) / len(ops),
        "failed_ops": failed,
        "setup_s_probes": [s for s, _ in setups],
        "setup_kernel_s": [ks for _, ks in setups],
        "speed_reference_s": speed.REFERENCE_S,
        "speed_kernel_s_median": statistics.median(record["kernel_s"]),
        "speed_factor": factor,
        "measured": {
            "setup_s": setup_s,
            "ops_per_s": len(ops) / sum(seconds),
            "op_ms_geomean": 1000 * geomean(seconds),
            "op_ms_tail_mean": 1000 * tail_mean(seconds),
        },
        "rounds": record["rounds"],
        "measured_s": record["elapsed_s"],
    }
    if args.trace:
        full["spans_file"] = record["spans_file"]
        full["traced_failures"] = record["traced_failures"]
        metrics = record["layers"]
    else:
        metrics = {
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "ops_per_s": {"value": len(ops) / sum(scaled), "unit": "1/s"},
            "op_ms_geomean": {"value": 1000 * geomean(scaled), "unit": "ms"},
            "op_ms_tail_mean": {"value": 1000 * tail_mean(scaled), "unit": "ms"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    return result, full


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("tables", "epower", "gap"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "maxent_evalues" / "cli.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setups = [_start(args, True, deadline)[:2] for _ in range(SETUP_PROBES - 1)]
        *setup, out = _start(args, False, deadline)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(tuple(setup))
    record = json.loads(out.strip().splitlines()[-1])
    result, full = summarize(args, setups, record)
    OUT.mkdir(exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": full, "result": result, "ops": record["ops"],
                                        "kernel_s": record["kernel_s"]}))
    print(json.dumps(full))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
