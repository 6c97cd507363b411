"""Differential harness for the predecoded VM engine.

``Machine`` (repro.vm.engine's one dispatch loop) must be observably
indistinguishable from the plain tuple-dispatch oracle in
``tests/legacy_vm.py``: bit-identical RunResults (instructions,
per-branch exec/taken, events, output, exit code) and identical monitor
callback streams, over both generated programs and every bundled
workload x dataset, monitored and unmonitored.  Anything predecoding,
fusion or the monitor guards get wrong shows up here as a disagreement
with the oracle.
"""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_source
from repro.ir.opcodes import Opcode
from repro.vm.engine import (
    FUSIBLE_OPS,
    OP_FUSED,
    OP_FUSED_BR,
    PredecodedProgram,
    predecode,
)
from repro.vm.errors import VMError
from repro.vm.machine import Machine
from repro.vm.monitors import BranchMonitor, OutcomeRecorder, RunLengthMonitor
from repro.workloads import registry
from repro.workloads.sourcegen import mf_module

from tests.legacy_vm import LegacyMachine

#: The engine under test and the oracle, by the ids the parametrized
#: monitor-contract tests use.
MACHINES = {"fast": Machine, "legacy": LegacyMachine}


def as_tuple(result):
    return dataclasses.astuple(result)


def lowered(source, name="test"):
    return compile_source(source, name=name).lowered


LOOPY = """
arr table[16];
func helper(n) {
    var i; var acc = 0;
    for (i = 0; i < n; i += 1) {
        if (i % 3 == 0) { acc += table[i % 16]; }
        else { table[i % 16] = acc & 255; }
    }
    return acc;
}
func main() {
    var i; var total = 0;
    for (i = 0; i < 40; i += 1) { total = total + helper(i % 7); }
    putc(total & 255);
    return total & 127;
}
"""


# -- generated-program differential -------------------------------------------


@given(st.integers(0, 100_000), st.binary(max_size=8))
@settings(max_examples=60, deadline=None)
def test_fast_matches_legacy_on_generated_modules(seed, data):
    program = lowered(mf_module(seed), name=f"p{seed}")
    fast = Machine().run(program, input_data=data)
    legacy = LegacyMachine().run(program, input_data=data)
    assert as_tuple(fast) == as_tuple(legacy)


@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_monitored_fast_matches_legacy_on_generated_modules(seed):
    program = lowered(mf_module(seed), name=f"p{seed}")
    recorder_fast, recorder_legacy = OutcomeRecorder(), OutcomeRecorder()
    fast = Machine().run(program, monitors=[recorder_fast])
    legacy = LegacyMachine().run(program, monitors=[recorder_legacy])
    assert as_tuple(fast) == as_tuple(legacy)
    assert recorder_fast.outcomes == recorder_legacy.outcomes


# -- bundled-workload differential --------------------------------------------


@pytest.mark.parametrize("workload_name", registry.workload_names())
def test_fast_matches_legacy_on_workload(workload_name):
    """Bit-identical RunResults for every dataset of every bundled workload."""
    workload = registry.get_workload(workload_name)
    program = lowered(workload.source, name=workload_name)
    fast = Machine()
    legacy = LegacyMachine()
    for dataset in workload.datasets:
        fast_result = fast.run(program, input_data=dataset.data)
        legacy_result = legacy.run(program, input_data=dataset.data)
        assert as_tuple(fast_result) == as_tuple(legacy_result), (
            workload_name, dataset.name,
        )


def test_monitored_fast_matches_legacy_on_smallest_workload_runs():
    """Identical monitor callback streams on real workloads (the smallest
    dataset of a few workloads keeps the recorded streams tractable)."""
    for workload_name in ("compress", "li", "eqntott"):
        workload = registry.get_workload(workload_name)
        program = lowered(workload.source, name=workload_name)
        dataset = min(workload.datasets, key=lambda ds: len(ds.data))
        recorder_fast, recorder_legacy = OutcomeRecorder(), OutcomeRecorder()
        fast = Machine().run(
            program, input_data=dataset.data, monitors=[recorder_fast]
        )
        legacy = LegacyMachine().run(
            program, input_data=dataset.data, monitors=[recorder_legacy]
        )
        assert as_tuple(fast) == as_tuple(legacy), (workload_name, dataset.name)
        assert recorder_fast.outcomes == recorder_legacy.outcomes


def test_serial_and_parallel_runs_are_identical(tmp_path):
    """One experiment through the new engine: serial and --jobs 2 runs
    publish byte-identical results."""
    from repro.core.parallel import RunRequest
    from repro.core.runner import WorkloadRunner

    workload = registry.get_workload("compress")
    requests = [
        RunRequest("compress", name) for name in workload.dataset_names()
    ]
    serial = WorkloadRunner(cache_dir=str(tmp_path / "serial"), jobs=1)
    fanout = WorkloadRunner(cache_dir=str(tmp_path / "fanout"), jobs=2)
    serial_results = serial.run_many(requests)
    fanout_results = fanout.run_many(requests)
    assert [as_tuple(r) for r in serial_results] == [
        as_tuple(r) for r in fanout_results
    ]


# -- decode correctness --------------------------------------------------------


def test_predecoded_form_is_cached_on_the_program():
    program = lowered(LOOPY)
    first = predecode(program)
    assert isinstance(first, PredecodedProgram)
    assert predecode(program) is first
    assert program.predecoded is first


def test_fusion_collapses_straight_line_runs():
    program = lowered(LOOPY)
    decoded = predecode(program)
    total_fused = sum(func.fused_ops for func in decoded.functions)
    assert total_fused > 0
    for original, fast in zip(program.functions, decoded.functions):
        assert len(fast.code) <= len(original.code)
        # Decoded instruction counts must add back up to the original.
        expanded = sum(
            ins[2] if ins[0] > OP_FUSED - 1 else 1 for ins in fast.code
        )
        assert expanded == len(original.code)


def test_fusible_ops_have_no_control_flow():
    control = {Opcode.BR, Opcode.JMP, Opcode.CALL, Opcode.ICALL,
               Opcode.RET, Opcode.HALT}
    assert not FUSIBLE_OPS & {int(op) for op in control}


def test_faults_are_identical_across_engines():
    bad_store = lowered(
        """
        arr buf[4];
        func main() {
            var i = 0 - 5;
            buf[i] = 1;
            return 0;
        }
        """
    )
    with pytest.raises(VMError, match="store to bad address"):
        Machine().run(bad_store)
    with pytest.raises(VMError, match="store to bad address"):
        LegacyMachine().run(bad_store)

    div_zero = lowered(
        """
        func main() {
            var d = 0;
            return 7 / d;
        }
        """
    )
    with pytest.raises(VMError, match="division by zero"):
        Machine().run(div_zero)
    with pytest.raises(VMError, match="division by zero"):
        LegacyMachine().run(div_zero)


# -- monitor contract regressions ---------------------------------------------


class _ExplodingMonitor(BranchMonitor):
    """A deliberately-broken observer: its own bugs must surface as its
    own exceptions, not as guest-program VM faults."""

    def __init__(self, exc_type):
        self.exc_type = exc_type

    def on_branch(self, branch_index, taken, icount):
        if self.exc_type is ZeroDivisionError:
            _ = 1 // 0
        else:
            _ = [][1]


@pytest.mark.parametrize("engine", sorted(MACHINES))
@pytest.mark.parametrize("exc_type", [ZeroDivisionError, IndexError])
def test_monitor_bugs_are_not_misattributed_to_the_guest(engine, exc_type):
    # Before the fix, the dispatch loop's broad except arms converted a
    # monitor's own ZeroDivisionError/IndexError into a guest VMError
    # ("division by zero" / "bad register or code reference").
    program = lowered(LOOPY)
    machine = MACHINES[engine]()
    with pytest.raises(exc_type) as excinfo:
        machine.run(program, monitors=[_ExplodingMonitor(exc_type)])
    assert not isinstance(excinfo.value, VMError)


#: Branch 0 is fused into its loop-header run; branches 1 and 2 follow a
#: CALL/GETC and stay plain BR elements.
BOTH_BRANCH_SITES = """
func f(n) { return n & 1; }
func main() {
    var i; var acc = 0;
    for (i = 0; i < 6; i += 1) {
        if (f(i)) { acc += 1; }
        if (getc()) { acc += 2; }
    }
    return acc;
}
"""


class _ExplodingAt(BranchMonitor):
    """Raises its own IndexError at the first outcome of one branch."""

    def __init__(self, branch):
        self.branch = branch

    def on_branch(self, branch_index, taken, icount):
        if branch_index == self.branch:
            _ = [][1]


def test_both_branch_sites_report_and_guard_monitors():
    program = lowered(BOTH_BRANCH_SITES)
    # One branch index per kind of branch element: {opcode: branch index}.
    sites = {
        ins[0]: ins[-1]
        for func in predecode(program).functions
        for ins in func.code
        if ins[0] in (OP_FUSED_BR, int(Opcode.BR))
    }
    assert set(sites) == {OP_FUSED_BR, int(Opcode.BR)}
    recorder_fast, recorder_legacy = OutcomeRecorder(), OutcomeRecorder()
    fast = Machine().run(program, b"\x00\x01\x02", [recorder_fast])
    legacy = LegacyMachine().run(program, b"\x00\x01\x02", [recorder_legacy])
    assert as_tuple(fast) == as_tuple(legacy)
    assert recorder_fast.outcomes == recorder_legacy.outcomes
    for branch in sites.values():
        for machine in (Machine(), LegacyMachine()):
            with pytest.raises(IndexError) as excinfo:
                machine.run(program, monitors=[_ExplodingAt(branch)])
            assert not isinstance(excinfo.value, VMError)


@pytest.mark.parametrize("engine", sorted(MACHINES))
def test_run_length_monitor_flushes_the_tail_run(engine):
    # Before the fix, instructions executed after the last misprediction
    # were silently dropped, so run lengths never summed to the run's
    # instruction count.
    program = lowered(LOOPY)
    num_branches = len(program.branch_table)
    monitor = RunLengthMonitor([False] * num_branches)
    result = MACHINES[engine]().run(program, monitors=[monitor])
    assert monitor.run_lengths
    assert all(length > 0 for length in monitor.run_lengths)
    assert sum(monitor.run_lengths) == result.instructions
    oracle = RunLengthMonitor([False] * num_branches)
    LegacyMachine().run(program, monitors=[oracle])
    assert monitor.run_lengths == oracle.run_lengths


def test_run_length_tail_covers_a_fully_predicted_run():
    # Every branch predicted correctly: the whole run is one tail run.
    program = lowered(
        """
        func main() {
            var i; var acc = 0;
            for (i = 0; i < 10; i += 1) { acc += i; }
            return acc;
        }
        """
    )
    recorder = OutcomeRecorder()
    result = Machine().run(program, monitors=[recorder])
    directions = [None] * len(program.branch_table)
    for index, taken in recorder.outcomes:
        directions[index] = taken
    # Only valid if each branch is monotone in this toy program; the loop
    # branch flips on exit, so predict the majority (taken) and accept
    # one break plus the tail.
    monitor = RunLengthMonitor(
        [bool(direction) for direction in directions]
    )
    rerun = Machine().run(program, monitors=[monitor])
    assert sum(monitor.run_lengths) == rerun.instructions
