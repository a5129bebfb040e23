"""Record reference outputs for every pooled op of the given workloads.

    python3 perfbench/record_references.py [workload ...]

Runs each op once through the CLI and stores the values that checks.py
compares (see checks.extract) in references.json, keyed by op key. Ops
checked against an exact oracle or frozen values get no entry. An op that
fails is reported and gets no entry, so it keeps failing in the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import run

REFERENCES = Path(__file__).parent / "references.json"


def main(argv) -> int:
    os.environ.update(run.child_env())
    import checks
    import workloads
    from worker import cli, write_inputs

    names = argv or list(workloads.WORKLOADS)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    failures = 0
    for name in names:
        ops = workloads.all_ops(workloads.pool(name)) + [workloads.warmup_op(name)]
        ops = list({op.key: op for op in ops}.values())  # strata may share items
        refs = {k: v for k, v in refs.items() if not k.startswith(name + "/")}
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as directory:
            write_inputs(ops, Path(directory))
            for op in ops:
                out = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(op.resolved_argv(directory))
                seconds = time.perf_counter() - start
                try:
                    if rc != 0:
                        raise checks.CheckError(f"exit {rc}")
                    values = checks.extract(checks.strict_json(out.getvalue()))
                except checks.CheckError as exc:
                    failures += 1
                    print(f"FAILED {op.key}: {exc}", flush=True)
                    continue
                if not op.oracle:
                    refs[op.key] = values
                print(f"{seconds:8.3f}s {op.key}", flush=True)
    REFERENCES.write_text(json.dumps(dict(sorted(refs.items())), indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
