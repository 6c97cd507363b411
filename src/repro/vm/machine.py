"""The counting virtual machine (the reproduction's MFPixie).

Executes a :class:`~repro.ir.lower.LoweredProgram`, counting every executed
RISC-level operation, every conditional-branch outcome (per static branch),
and every other control-transfer event.  Execution starts at ``main`` (which
takes no arguments); the program ends when ``main`` returns or a ``halt``
executes, and ``main``'s return value is the exit code.

``run()`` predecodes the program once — operand pre-binding plus
basic-block superinstruction fusion, see :mod:`repro.vm.engine` — and runs
the engine's dispatch loop, entered through ``run_monitored`` when branch
observers are attached and ``run_fast`` otherwise.
"""
from __future__ import annotations

from typing import Sequence

from repro.ir.lower import LoweredProgram
from repro.vm.counters import RunResult
from repro.vm.engine import predecode, run_fast, run_monitored
from repro.vm.errors import VMError
from repro.vm.monitors import BranchMonitor

#: Default per-run instruction budget: large enough for every workload,
#: small enough to catch runaway programs in seconds.
DEFAULT_MAX_INSTRUCTIONS = 200_000_000

#: Default call-depth limit (catches unbounded recursion).
DEFAULT_MAX_CALL_DEPTH = 10_000


class Machine:
    """Executes lowered programs and collects :class:`RunResult` counts."""

    def __init__(
        self,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        max_call_depth: int = DEFAULT_MAX_CALL_DEPTH,
    ) -> None:
        self.max_instructions = max_instructions
        self.max_call_depth = max_call_depth

    def run(
        self,
        program: LoweredProgram,
        input_data: bytes = b"",
        monitors: Sequence[BranchMonitor] = (),
    ) -> RunResult:
        """Run ``program`` over ``input_data`` and return the measured counts."""
        main = program.functions[program.main_index]
        if main.num_params != 0:
            raise VMError("main must take no parameters")
        for monitor in monitors:
            monitor.on_run_start(len(program.branch_table))

        decoded = predecode(program)
        if monitors:
            return run_monitored(
                decoded, input_data, monitors,
                self.max_instructions, self.max_call_depth,
            )
        return run_fast(
            decoded, input_data, self.max_instructions, self.max_call_depth
        )


def run_program(
    program: LoweredProgram,
    input_data: bytes = b"",
    monitors: Sequence[BranchMonitor] = (),
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> RunResult:
    """Convenience wrapper: run a program on a fresh :class:`Machine`."""
    machine = Machine(max_instructions=max_instructions)
    return machine.run(program, input_data=input_data, monitors=monitors)
