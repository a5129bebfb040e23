"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _stratum(workload, name):
    # Not through workloads.pool, which the minimal run's workers replace.
    return next(s for s in workloads._POOLS[workload]() if s.name == name)


def cheapest_pool(workload):
    """One small item of a few strata, one op each a round: a minimal run on
    the workload's main routes."""
    keep = {
        "tables": ("t16-beta22", "net-large"),
        "epower": ("beta33-k3",),
        "gap": ("criterion5", "worst-case", "palt", "pseudo-12-17"),
    }[workload]
    return [workloads.Stratum(name, _stratum(workload, name).items[:1], 1) for name in keep]


@pytest.fixture(scope="module")
def references():
    return worker.load_references()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_minimal_run_emits_every_metric(workload, tmp_path, monkeypatch, capsys):
    """run.main starts real worker processes; each serves the cheapest pool."""
    shim = tmp_path / "cheap_worker.py"
    shim.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import test_perfbench, worker, workloads\n"
        "workloads.pool = test_perfbench.cheapest_pool\n"
        "sys.exit(worker.main())\n"
    )
    monkeypatch.setattr(run, "WORKER", shim)
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
        assert run.main(argv) == 0
        record_line, result_line = capsys.readouterr().out.strip().splitlines()[-2:]
        result, record = json.loads(result_line), json.loads(record_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert result["attempted"] == record["ops_attempted"] >= 1
        assert len(record["setup_s_probes"]) == 2
        for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                    "maxent_evalues_workers", "ops_by_type", "op_ms_tail_percentile"):
            assert key in record, key
        assert record["maxent_evalues_workers"] == "1"
        saved = json.loads((run.OUT / f"run-{workload}-seed7-trace{trace}.json").read_text())
        assert saved["result"] == result


def test_tracer_restores_library_functions():
    modules = [importlib.import_module(f"maxent_evalues.{m}") for m in tracing.LAYERS]
    modules.append(importlib.import_module("maxent_evalues"))
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from maxent_evalues import cli, diagnostics, evariables

        assert cli.ripr_solve is evariables.ripr_solve is diagnostics.ripr_solve
        assert cli.ripr_solve is not before[tracing.LAYERS.index("cli")]["ripr_solve"]
    finally:
        tracer.uninstall()
    for module, saved in zip(modules, before):
        for name, value in saved.items():
            if inspect.isfunction(value):
                assert getattr(module, name) is value, (module.__name__, name)


def test_spans_nest_and_self_time_excludes_children(references, tmp_path):
    op = _stratum("tables", "t16-beta22").items[0][1]  # a can op
    worker.write_inputs([op], tmp_path)
    spans, results, _ = worker.traced_replay([op], str(tmp_path), references)
    assert results[0][2] is None
    names = {s[1] for s in spans}
    assert {"op", "cli.main", "evariables.ripr_solve", "table_io.parse_table"} <= names
    selfs = tracing.self_times(spans)
    root = next(s for s in spans if s[1] == "op")
    assert sum(selfs.values()) == pytest.approx(root[3] - root[2], rel=1e-9)
    assert all(v >= -1e-9 for v in selfs.values())


def test_corrupted_reference_fails_the_op(references, tmp_path):
    op = _stratum("tables", "t16-beta22").items[0][1]
    worker.write_inputs([op], tmp_path)
    assert worker.run_op(op, str(tmp_path), references)[1] is None
    corrupted = dict(references)
    corrupted[op.key] = {k: v * 1.01 for k, v in references[op.key].items()}
    reason = worker.run_op(op, str(tmp_path), corrupted)[1]
    assert reason is not None and reason.startswith("check:")


def test_strict_json_refuses_infinity_and_nan():
    for text in ('{"e": Infinity}', '{"e": NaN}', '{"e": -Infinity}'):
        with pytest.raises(checks.CheckError):
            checks.strict_json(text)


def test_mic_oracle_counts_by_brute_force():
    import itertools

    sizes = (3, 5, 2)
    for total in range(sum(sizes) + 2):
        brute = sum(1 for u in itertools.product(*[range(m + 1) for m in sizes])
                    if sum(u) == total)
        assert checks._count_sums(sizes, total) == brute


def test_rounds_deal_without_replacement_and_keep_the_mix():
    for workload in workloads.WORKLOADS:
        strata = workloads.pool(workload)
        rounds = workloads.rounds_for(workload, BENCHMARK["run_seconds"])
        for seed in (1, 2):
            keys = [op.key for ops in workloads.run_plan(strata, seed, rounds) for op in ops]
            assert len(keys) == rounds * sum(s.per_round * len(s.items[0]) for s in strata)
            for s in strata:
                dealt = [op.key for ops in workloads.run_plan([s], seed, rounds) for op in ops]
                distinct = min(len(dealt), len(s.items) * len(s.items[0]))
                assert len(set(dealt)) == distinct, (workload, s.name)


@pytest.mark.xfail(strict=True, reason="FFT route of numerics.convolve: linear-space "
                   "round-off puts mic off the exact value by 1.2e-5 in log_e")
def test_fft_route_mic_matches_the_exact_oracle(references, tmp_path):
    """Pooled network 03 through mic, which the tables workload leaves out
    for this error. When the library fixes it, this test passes, strict xfail
    fails it, and mic can go back on the networks."""
    (op,) = workloads.network_stratum(("mic",)).items[3]
    worker.write_inputs([op], tmp_path)
    assert worker.run_op(op, str(tmp_path), references)[1] is None


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90, 89, 10)
    assert run.tail(list(range(5))) == (100, 4, 0)
    assert run.tail_mean(list(range(100))) == 94.5
    assert run.tail_mean(list(range(5))) == 4


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
