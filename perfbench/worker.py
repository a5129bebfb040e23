"""One benchmark process: set up, run whole rounds of ops, report as JSON.

Started by run.py, which sets the thread environment before this process
imports numpy. Prints "READY" once set-up (imports, input generation,
writing inputs, one warm-up op) is done, then the speed kernel's time (see
speed.py) and, unless --setup-only, one JSON line with every op's time and
check outcome and the kernel times of the run. With --trace 1 the
same ops are replayed with spans installed and the per-layer metrics are
added.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from maxent_evalues import cli  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_op(op, directory: str, references: dict):
    """Run one op through the CLI in-process. Returns (seconds, reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.resolved_argv(directory))
    except (Exception, SystemExit) as exc:
        seconds = time.perf_counter() - start
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return seconds, f"raised {type(exc).__name__}: {exc} ({frame.name}:{frame.lineno})"
    seconds = time.perf_counter() - start
    if rc != 0:
        return seconds, f"exit {rc}: {err.getvalue().strip()[:200]}"
    try:
        checks.check(op, out.getvalue(), references)
    except (checks.CheckError, KeyError, TypeError, ValueError, OverflowError) as exc:
        return seconds, f"check: {type(exc).__name__}: {exc}"
    return seconds, None


def write_inputs(ops, directory: Path) -> None:
    for op in ops:
        for name, text in op.files.items():
            path = directory / name
            if not path.exists():
                path.write_text(text)


def load_references() -> dict:
    return json.loads((Path(__file__).parent / "references.json").read_text())


def timed(ops, run):
    """Run each op with `run`, timing the speed kernel before every op and
    after the last. Returns [(op, seconds, reason)] and the kernel times."""
    results, kernels = [], []
    for op in ops:
        kernels.append(speed.kernel_s())
        results.append((op, *run(op)))
    kernels.append(speed.kernel_s())
    return results, kernels


def measure(pool, seed: int, rounds: int, directory: str, references: dict):
    """Run `rounds` whole rounds; returns [(op, seconds, reason)], the kernel
    times and the time taken."""
    ops = [op for ops in workloads.run_plan(pool, seed, rounds) for op in ops]
    start = time.perf_counter()
    results, kernels = timed(ops, lambda op: run_op(op, directory, references))
    return results, kernels, time.perf_counter() - start


def traced_replay(ops, directory: str, references: dict):
    """Replay `ops` with spans installed; returns the spans and what `timed`
    returns."""
    tracer = tracing.Tracer()
    tracer.install()
    op_ids = iter(range(len(ops)))

    def run(op):
        tracer.op_id = next(op_ids)
        return tracer.span("op", run_op, op, directory, references)

    try:
        results, kernels = timed(ops, run)
    finally:
        tracer.uninstall()
    return tracer.spans, results, kernels


def provenance() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "maxent_evalues_workers": os.environ.get("MAXENT_EVALUES_WORKERS"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    pool = workloads.pool(args.workload)
    OUT.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        warmup = workloads.warmup_op(args.workload)
        write_inputs(workloads.all_ops(pool) + [warmup], directory)
        references = load_references()
        _, reason = run_op(warmup, str(directory), references)
        if reason:
            print(f"warm-up failed: {reason}", file=sys.stderr)
            return 1
        print("READY", flush=True)
        print(speed.kernel_s(), flush=True)
        if args.setup_only:
            return 0
        rounds = workloads.rounds_for(args.workload, args.seconds)
        results, kernels, elapsed = measure(pool, args.seed, rounds, str(directory), references)
        record = {
            "ops": [[op.key, op.kind, s, reason] for op, s, reason in results],
            "kernel_s": kernels,
            "rounds": rounds,
            "elapsed_s": elapsed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "provenance": provenance(),
        }
        if args.trace:
            spans, traced, traced_kernels = traced_replay(
                [op for op, _, _ in results], str(directory), references)
            untraced_s = sum(s for _, s, _ in results) * speed.factor(kernels)
            traced_s = sum(s for _, s, _ in traced) * speed.factor(traced_kernels)
            values = tracing.layer_metrics(spans, traced_s / untraced_s - 1.0)
            record["layers"] = {name: {"value": values[name], "unit": unit}
                                for name, unit in tracing.metric_units().items()}
            record["traced_failures"] = [[op.key, reason] for op, _, reason in traced if reason]
            path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(tracing.spans_to_json(spans)))
            record["spans_file"] = str(path.relative_to(ROOT))
        print(json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
