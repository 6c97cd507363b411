"""Check the toolchain against the independent AST interpreter.

Usage (from the repository root, with ``src`` and the root on
``PYTHONPATH``)::

    python3 perfbench/refcheck.py

For each workload's smallest dataset, ``tests/reference_interp.py``
(which shares only the parser with the production pipeline) and the
compiled program on the VM must agree on ``(exit_code, output)``.  Prints
one JSON line: per workload the dataset, both answers as (exit code,
output sha256) and whether they agree.
"""
from __future__ import annotations

import hashlib
import json
import sys

from repro.core.runner import WorkloadRunner
from repro.workloads.registry import all_workloads
from tests.reference_interp import ReferenceFault, ReferenceInterpreter


def answer(exit_code: int, output: bytes) -> list:
    return [exit_code, hashlib.sha256(output).hexdigest()]


def check() -> dict:
    runner = WorkloadRunner(cache_dir=None, jobs=1)
    report = {}
    for workload in all_workloads():
        dataset = min(workload.datasets, key=lambda data: len(data.data))
        try:
            expected = answer(*ReferenceInterpreter(workload.source).run(
                input_data=dataset.data
            ))
        except ReferenceFault as fault:
            expected = ["fault", str(fault)]
        result = runner.run(workload.name, dataset.name)
        actual = answer(result.exit_code, result.output)
        report[workload.name] = {
            "dataset": dataset.name,
            "reference": expected,
            "pipeline": actual,
            "ok": expected == actual,
        }
    return report


if __name__ == "__main__":
    print(json.dumps(check()), flush=True)
    sys.exit(0)
