"""Benchmark fixtures.

The session runner pre-warms every simulation the tables and figures need
(including the DCE configuration Table 1 uses), so that each benchmark
measures the experiment's regeneration — the analysis over the measured
runs — not the one-time simulations, which are served from the on-disk
cache on later invocations anyway.

The repository root goes on ``sys.path`` so ``bench_vm`` can import the
counting oracle from ``tests/legacy_vm.py`` under a plain ``pytest`` run.
"""
import sys
from pathlib import Path

import pytest

from repro.core.runner import RunConfig, WorkloadRunner
from repro.experiments import table1
from repro.workloads import all_workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


@pytest.fixture(scope="session")
def runner():
    warmed = WorkloadRunner()
    for workload in all_workloads():
        for dataset in workload.dataset_names():
            warmed.run(workload.name, dataset)
    for program in table1.PAPER_DEAD_CODE:
        for dataset in warmed.workload(program).dataset_names():
            warmed.run(program, dataset, config=RunConfig(dce=True))
    return warmed
