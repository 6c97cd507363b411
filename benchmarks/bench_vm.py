"""Benchmark: predecoded VM engine throughput vs the legacy loop.

The VM dispatch loop is the substrate-wide hot path — every table and
figure is arithmetic over millions of simulated RISC-ops — so this is
the repo's first recorded perf point (``BENCH_VM.json``).  ``Machine``
is timed against the plain tuple-dispatch oracle in ``tests/legacy_vm.py``.
The smoke test guards the fast path in CI with a conservative speedup
floor (the point is catching a silent regression to legacy-loop
throughput, not chasing the exact multiple on a noisy runner); the full
benchmark sweeps every bundled workload x dataset, checks bit-identity
against the oracle as it goes, and rewrites ``BENCH_VM.json``.
"""
import dataclasses
import json
import platform
import time
from pathlib import Path

from repro.compiler import compile_source
from repro.vm.engine import predecode
from repro.vm.machine import Machine
from repro.workloads import registry

from tests.legacy_vm import LegacyMachine

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_VM.json"

#: CI floor: the fast engine measures 2.1-2.2x overall (1.6x on the most
#: control-heavy workload, 4x on compute kernels); anything under 1.4x on
#: this mix means the fast path stopped being fast.
SMOKE_FLOOR = 1.4

#: A small compute + control mix for the smoke check.
SMOKE_RUNS = [("nasa7", None), ("espresso", None)]


def _compiled(workload_name):
    workload = registry.get_workload(workload_name)
    return workload, compile_source(workload.source, name=workload_name).lowered


def _timed_run(machine, program, data):
    started = time.perf_counter()
    result = machine.run(program, input_data=data)
    return time.perf_counter() - started, result


def _measure(workload_name, dataset_names=None):
    """Per-workload (instructions, legacy_seconds, fast_seconds); the fast
    timing is the warm path (decode cached on the LoweredProgram), which
    is what every sweep after the first run pays."""
    workload, program = _compiled(workload_name)
    fast = Machine()
    legacy = LegacyMachine()
    predecode(program)  # decode once, outside the timed region
    instructions = 0
    legacy_seconds = fast_seconds = 0.0
    for dataset in workload.datasets:
        if dataset_names is not None and dataset.name not in dataset_names:
            continue
        legacy_time, legacy_result = _timed_run(legacy, program, dataset.data)
        fast_time, fast_result = _timed_run(fast, program, dataset.data)
        assert dataclasses.astuple(fast_result) == dataclasses.astuple(
            legacy_result
        ), (workload_name, dataset.name)
        instructions += legacy_result.instructions
        legacy_seconds += legacy_time
        fast_seconds += fast_time
    return instructions, legacy_seconds, fast_seconds


def test_smoke_vm_engine_speedup():
    instructions = 0
    legacy_seconds = fast_seconds = 0.0
    for workload_name, _ in SMOKE_RUNS:
        workload = registry.get_workload(workload_name)
        smallest = min(workload.datasets, key=lambda ds: len(ds.data))
        count, legacy_time, fast_time = _measure(
            workload_name, dataset_names={smallest.name}
        )
        instructions += count
        legacy_seconds += legacy_time
        fast_seconds += fast_time

    speedup = legacy_seconds / fast_seconds
    print(
        f"\nVM engine smoke: {instructions / 1e6:.1f}M ops, "
        f"legacy {instructions / legacy_seconds / 1e6:.2f} Mops/s, "
        f"fast {instructions / fast_seconds / 1e6:.2f} Mops/s, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= SMOKE_FLOOR, (
        f"fast engine speedup {speedup:.2f}x fell below the "
        f"{SMOKE_FLOOR}x floor — did the fast path regress to the "
        "legacy loop?"
    )


def test_full_vm_engine_benchmark():
    """Sweep every bundled workload x dataset and record BENCH_VM.json."""
    workloads = {}
    total_instructions = 0
    total_legacy = total_fast = 0.0
    for workload_name in registry.workload_names():
        instructions, legacy_seconds, fast_seconds = _measure(workload_name)
        workloads[workload_name] = {
            "instructions": instructions,
            "legacy_mops": round(instructions / legacy_seconds / 1e6, 2),
            "fast_mops": round(instructions / fast_seconds / 1e6, 2),
            "speedup": round(legacy_seconds / fast_seconds, 2),
        }
        total_instructions += instructions
        total_legacy += legacy_seconds
        total_fast += fast_seconds

    overall = legacy_mops, fast_mops, speedup = (
        round(total_instructions / total_legacy / 1e6, 2),
        round(total_instructions / total_fast / 1e6, 2),
        round(total_legacy / total_fast, 2),
    )
    report = {
        "benchmark": "vm_engine_throughput",
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "unmonitored": True,
        "total_instructions": total_instructions,
        "overall": {
            "legacy_mops": legacy_mops,
            "fast_mops": fast_mops,
            "speedup": speedup,
        },
        "workloads": workloads,
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nVM engine full sweep: {total_instructions / 1e6:.0f}M ops, "
        f"legacy {legacy_mops:.2f} Mops/s, fast {fast_mops:.2f} Mops/s, "
        f"speedup {speedup:.2f}x -> {BENCH_PATH.name}"
    )
    assert overall[2] >= 2.0, (
        f"tentpole target is >=2x unmonitored throughput, got {speedup:.2f}x"
    )
