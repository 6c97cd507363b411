"""Reaching definitions and definite assignment.

Two classic forward analyses over the same def sites:

* **Reaching definitions** (may, union): which ``(label, position)`` def
  sites can reach each block boundary.  Used by tests and future consumers
  that need def-use chains.
* **Definite assignment** (must, intersection): which registers are written
  on *every* path from entry.  The use-before-def lint is its consumer:
  the VM zero-fills registers, so a maybe-uninitialized read is not a crash
  — it is a code-generator or optimizer bug worth failing loudly on.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.dataflow import DataflowAnalysis, solve
from repro.ir.cfg import BasicBlock, Function
from repro.ir.instructions import Instr


class ReachingDefinitions(
    DataflowAnalysis[FrozenSet[Tuple[int, str, int]]]
):
    """Forward union analysis; state = frozenset of (reg, label, position)."""

    def boundary(
        self, func: Function
    ) -> FrozenSet[Tuple[int, str, int]]:
        # Parameters are defined at entry (position -1 of a pseudo block).
        return frozenset(
            (reg, "<entry>", -1) for reg in range(func.num_params)
        )

    def meet(
        self,
        left: FrozenSet[Tuple[int, str, int]],
        right: FrozenSet[Tuple[int, str, int]],
    ) -> FrozenSet[Tuple[int, str, int]]:
        return left | right

    def transfer(
        self, block: BasicBlock, state: FrozenSet[Tuple[int, str, int]]
    ) -> FrozenSet[Tuple[int, str, int]]:
        killed: Set[int] = set()
        generated: List[Tuple[int, str, int]] = []
        for position, instr in enumerate(block.instrs):
            if instr.dst is not None:
                killed.add(instr.dst)
                generated.append((instr.dst, block.label, position))
        survivors = {fact for fact in state if fact[0] not in killed}
        # Only the *last* def of each register survives to the block exit.
        last: Dict[int, Tuple[int, str, int]] = {}
        for fact in generated:
            last[fact[0]] = fact
        return frozenset(survivors | set(last.values()))


def reaching_definitions(
    func: Function,
) -> Dict[str, Set[Tuple[int, str, int]]]:
    """(reg, def-label, def-position) facts reaching each block's entry."""
    result = solve(func, ReachingDefinitions())
    return {
        block.label: set(result.before[block.label] or frozenset())
        for block in func.blocks
    }


class DefiniteAssignment(DataflowAnalysis[FrozenSet[int]]):
    """Forward intersection analysis; state = registers assigned on every
    path.  Bottom (``None``) positions are unreachable, so they do not
    weaken the intersection."""

    def boundary(self, func: Function) -> FrozenSet[int]:
        return frozenset(range(func.num_params))

    def meet(self, left: FrozenSet[int], right: FrozenSet[int]) -> FrozenSet[int]:
        return left & right

    def transfer(
        self, block: BasicBlock, state: FrozenSet[int]
    ) -> FrozenSet[int]:
        defs = {
            instr.dst for instr in block.instrs if instr.dst is not None
        }
        return state | frozenset(defs)


#: A maybe-uninitialized read: (label, position, instruction, register).
UninitializedUse = Tuple[str, int, Instr, int]


def maybe_uninitialized_uses(func: Function) -> List[UninitializedUse]:
    """Reads of registers not definitely assigned at that point.

    Restricted to blocks reachable from entry: layout-unreachable leftovers
    never execute, so their reads are not diagnosable bugs.
    """
    result = solve(func, DefiniteAssignment())
    findings: List[UninitializedUse] = []
    for block in func.blocks:
        state = result.before.get(block.label)
        if state is None:
            continue  # unreachable
        assigned = set(state)
        for position, instr in enumerate(block.instrs):
            for reg in instr.uses():
                if reg not in assigned:
                    findings.append((block.label, position, instr, reg))
            if instr.dst is not None:
                assigned.add(instr.dst)
    return findings
