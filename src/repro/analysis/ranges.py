"""Integer value-range propagation (interval analysis).

Forward analysis over register -> interval maps.  Intervals are closed,
possibly unbounded on either side (``None`` = infinite); the VM's integers
are Python integers, so there is no wraparound to model and interval
arithmetic is exact.  ``getc`` is the one input channel and yields
``[-1, 255]`` — which is what lets the prover discharge the bounds checks
real programs wrap around their input loops.

Branch conditions refine ranges along the out-edges: when the condition
register is produced by a comparison in the same block (and neither operand
is redefined before the terminator), the comparison's truth on each edge
narrows both operands.  An edge whose refinement produces an empty interval
is infeasible.

Termination over this infinite-height lattice comes from widening at
natural-loop headers (plus the solver's visit-budget safety net).
"""
from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional

from repro.analysis.dataflow import DataflowAnalysis, DataflowResult, solve
from repro.ir.cfg import BasicBlock, Function
from repro.ir.instructions import Instr
from repro.ir.opcodes import NEGATED_COMPARISON, BinOp, Opcode, UnOp


@dataclasses.dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` bounds are infinite."""

    lo: Optional[int]
    hi: Optional[int]

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- queries -----------------------------------------------------------

    def is_constant(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def excludes_zero(self) -> bool:
        return (self.lo is not None and self.lo > 0) or (
            self.hi is not None and self.hi < 0
        )

    def is_nonnegative(self) -> bool:
        return self.lo is not None and self.lo >= 0

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)
BOOL = Interval(0, 1)
GETC_RANGE = Interval(-1, 255)


def const(value: int) -> Interval:
    return Interval(value, value)


def hull(left: Interval, right: Interval) -> Interval:
    lo = None if left.lo is None or right.lo is None else min(left.lo, right.lo)
    hi = None if left.hi is None or right.hi is None else max(left.hi, right.hi)
    return Interval(lo, hi)


def intersect(left: Interval, right: Interval) -> Optional[Interval]:
    """The intersection, or ``None`` when empty."""
    if left.lo is None:
        lo = right.lo
    elif right.lo is None:
        lo = left.lo
    else:
        lo = max(left.lo, right.lo)
    if left.hi is None:
        hi = right.hi
    elif right.hi is None:
        hi = left.hi
    else:
        hi = min(left.hi, right.hi)
    if lo is not None and hi is not None and lo > hi:
        return None
    return Interval(lo, hi)


def _add_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a + b


def _interval_add(a: Interval, b: Interval) -> Interval:
    return Interval(_add_bound(a.lo, b.lo), _add_bound(a.hi, b.hi))


def _interval_sub(a: Interval, b: Interval) -> Interval:
    negated = Interval(
        None if b.hi is None else -b.hi, None if b.lo is None else -b.lo
    )
    return _interval_add(a, negated)


def _interval_mul(a: Interval, b: Interval) -> Interval:
    bounds = (a.lo, a.hi, b.lo, b.hi)
    if all(bound is not None for bound in bounds):
        assert a.lo is not None and a.hi is not None
        assert b.lo is not None and b.hi is not None
        products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return Interval(min(products), max(products))
    if a.is_nonnegative() and b.is_nonnegative():
        assert a.lo is not None and b.lo is not None
        return Interval(a.lo * b.lo, _mul_bound(a.hi, b.hi))
    return TOP


def _mul_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a * b


#: Largest shift amount the analysis will evaluate exactly.
_MAX_SHIFT = 128


def _interval_binop(subop: int, a: Interval, b: Interval) -> Interval:
    op = BinOp(subop)
    if op == BinOp.ADD:
        return _interval_add(a, b)
    if op == BinOp.SUB:
        return _interval_sub(a, b)
    if op == BinOp.MUL:
        return _interval_mul(a, b)
    if op == BinOp.DIV:
        # C-style truncation: for a positive divisor the magnitude shrinks
        # toward zero, so the hull of the dividend's bounds and zero covers
        # every quotient.
        if b.lo is not None and b.lo >= 1:
            lo = None if a.lo is None else min(a.lo, 0)
            hi = None if a.hi is None else max(a.hi, 0)
            return Interval(lo, hi)
        return TOP
    if op == BinOp.MOD:
        # C-style remainder: sign follows the dividend, |r| < |b|.
        if b.lo is not None and b.lo >= 1:
            bound = None if b.hi is None else b.hi - 1
            if a.is_nonnegative():
                hi = bound if a.hi is None else (
                    a.hi if bound is None else min(a.hi, bound)
                )
                return Interval(0, hi)
            if bound is not None:
                return Interval(-bound, bound)
        return TOP
    if op == BinOp.AND:
        if a.is_nonnegative() and b.is_nonnegative():
            if a.hi is None:
                hi = b.hi
            elif b.hi is None:
                hi = a.hi
            else:
                hi = min(a.hi, b.hi)
            return Interval(0, hi)
        return TOP
    if op in (BinOp.OR, BinOp.XOR):
        if a.is_nonnegative() and b.is_nonnegative():
            if a.hi is None or b.hi is None:
                return Interval(0, None)
            bits = max(a.hi.bit_length(), b.hi.bit_length())
            return Interval(0, (1 << bits) - 1)
        return TOP
    if op == BinOp.SHL:
        if (
            a.is_nonnegative()
            and b.lo is not None
            and b.lo >= 0
            and b.hi is not None
            and b.hi <= _MAX_SHIFT
        ):
            assert a.lo is not None
            hi = None if a.hi is None else a.hi << b.hi
            return Interval(a.lo << b.lo, hi)
        return TOP
    if op == BinOp.SHR:
        if a.is_nonnegative() and b.lo is not None and b.lo >= 0:
            hi = None if a.hi is None else a.hi >> min(b.lo, _MAX_SHIFT)
            return Interval(0, hi)
        return TOP
    # Comparisons: 0/1, sharpened when the intervals decide the outcome.
    verdict = compare_intervals(op, a, b)
    if verdict is None:
        return BOOL
    return const(1 if verdict else 0)


def compare_intervals(op: BinOp, a: Interval, b: Interval) -> Optional[bool]:
    """Whether ``a OP b`` is decided by the intervals (None = undecided)."""

    def lt(x: Interval, y: Interval) -> Optional[bool]:
        if x.hi is not None and y.lo is not None and x.hi < y.lo:
            return True
        if x.lo is not None and y.hi is not None and x.lo >= y.hi:
            return False
        return None

    def le(x: Interval, y: Interval) -> Optional[bool]:
        if x.hi is not None and y.lo is not None and x.hi <= y.lo:
            return True
        if x.lo is not None and y.hi is not None and x.lo > y.hi:
            return False
        return None

    if op == BinOp.LT:
        return lt(a, b)
    if op == BinOp.LE:
        return le(a, b)
    if op == BinOp.GT:
        return lt(b, a)
    if op == BinOp.GE:
        return le(b, a)
    if op == BinOp.EQ:
        if a.is_constant() and b.is_constant() and a.lo == b.lo:
            return True
        if intersect(a, b) is None:
            return False
        return None
    if op == BinOp.NE:
        equal = compare_intervals(BinOp.EQ, a, b)
        return None if equal is None else not equal
    return None


def _interval_unop(subop: int, a: Interval) -> Interval:
    op = UnOp(subop)
    if op == UnOp.NEG:
        return Interval(
            None if a.hi is None else -a.hi, None if a.lo is None else -a.lo
        )
    if op == UnOp.NOT:
        if a.excludes_zero():
            return const(0)
        if a.is_constant() and a.lo == 0:
            return const(1)
        return BOOL
    if op == UnOp.BNOT:
        return Interval(
            None if a.hi is None else ~a.hi, None if a.lo is None else ~a.lo
        )
    return TOP


#: Abstract state: register -> interval.  Absent registers are unbounded.
RangeState = Dict[int, Interval]


def eval_ranges(instr: Instr, state: Mapping[int, Interval]) -> Interval:
    """The interval of ``instr``'s result under ``state``."""
    op = instr.op
    if op == Opcode.CONST:
        return const(instr.imm if instr.imm is not None else 0)
    if op == Opcode.MOV:
        return state.get(instr.a, TOP) if instr.a is not None else TOP
    if op == Opcode.GETC:
        return GETC_RANGE
    if op == Opcode.BIN:
        if instr.a is None or instr.b is None or instr.subop is None:
            return TOP
        return _interval_binop(
            instr.subop, state.get(instr.a, TOP), state.get(instr.b, TOP)
        )
    if op == Opcode.UN:
        if instr.a is None or instr.subop is None:
            return TOP
        return _interval_unop(instr.subop, state.get(instr.a, TOP))
    if op == Opcode.SELECT:
        if instr.a is None or instr.b is None or instr.c is None:
            return TOP
        cond = state.get(instr.a, TOP)
        if cond.excludes_zero():
            return state.get(instr.b, TOP)
        if cond.is_constant() and cond.lo == 0:
            return state.get(instr.c, TOP)
        return hull(state.get(instr.b, TOP), state.get(instr.c, TOP))
    return TOP


def _branch_comparison(block: BasicBlock) -> Optional[Instr]:
    """The comparison producing the block's branch condition, if it is in
    this block and its operands survive to the terminator unchanged."""
    term = block.terminator
    if term is None or term.op != Opcode.BR or term.a is None:
        return None
    body = block.body()
    for index in range(len(body) - 1, -1, -1):
        instr = body[index]
        if instr.dst == term.a:
            if instr.op != Opcode.BIN or instr.subop is None:
                return None
            if BinOp(instr.subop) not in _COMPARISONS:
                return None
            # Operands (and the condition itself) must not be redefined
            # between the comparison and the branch.
            clobbered = {
                later.dst
                for later in body[index + 1:]
                if later.dst is not None
            }
            if clobbered & {instr.a, instr.b, instr.dst}:
                return None
            return instr
    return None


_COMPARISONS = {BinOp.EQ, BinOp.NE, BinOp.LT, BinOp.LE, BinOp.GT, BinOp.GE}

#: Each comparison's refinement when it holds: (shift applied to the
#: left operand's hi from right's hi, ...) — expressed procedurally below.


def _refine_by_comparison(
    state: RangeState, instr: Instr, outcome: bool
) -> Optional[RangeState]:
    """Narrow the comparison's operands given its outcome; ``None`` when
    the outcome is impossible under ``state``."""
    assert instr.a is not None and instr.b is not None
    assert instr.subop is not None
    op = BinOp(instr.subop)
    if not outcome:
        op = NEGATED_COMPARISON[op]
    a = state.get(instr.a, TOP)
    b = state.get(instr.b, TOP)

    def bound_hi(x: Interval, limit: Optional[int]) -> Optional[Interval]:
        return intersect(x, Interval(None, limit))

    def bound_lo(x: Interval, limit: Optional[int]) -> Optional[Interval]:
        return intersect(x, Interval(limit, None))

    new_a: Optional[Interval]
    new_b: Optional[Interval]
    if op == BinOp.LT:
        new_a = bound_hi(a, None if b.hi is None else b.hi - 1)
        new_b = bound_lo(b, None if a.lo is None else a.lo + 1)
    elif op == BinOp.LE:
        new_a = bound_hi(a, b.hi)
        new_b = bound_lo(b, a.lo)
    elif op == BinOp.GT:
        new_a = bound_lo(a, None if b.lo is None else b.lo + 1)
        new_b = bound_hi(b, None if a.hi is None else a.hi - 1)
    elif op == BinOp.GE:
        new_a = bound_lo(a, b.lo)
        new_b = bound_hi(b, a.hi)
    elif op == BinOp.EQ:
        new_a = intersect(a, b)
        new_b = new_a
    else:  # NE: only singleton exclusions are representable.
        new_a, new_b = a, b
        if b.is_constant():
            new_a = _exclude_point(a, b.lo)
        if a.is_constant():
            new_b = _exclude_point(b, a.lo)
    if new_a is None or new_b is None:
        return None
    refined = dict(state)
    refined[instr.a] = new_a
    refined[instr.b] = new_b
    return refined


def _copy_representatives(block: BasicBlock) -> Dict[int, int]:
    """Register -> representative of its copy class at the block's end.

    Built from ``mov`` chains with redefinitions killing membership; two
    registers with the same representative provably hold the same value at
    the terminator, so an edge refinement of one applies to the other
    (codegen's variable copies otherwise hide refinements: the guard tests
    the temporary while later code reads the variable).
    """
    rep: Dict[int, int] = {}
    for instr in block.instrs:
        dst = instr.dst
        if dst is None:
            continue
        # A def of dst invalidates dst's membership and any link through it.
        stale = [reg for reg, root in rep.items() if reg == dst or root == dst]
        for reg in stale:
            rep.pop(reg, None)
        if instr.op == Opcode.MOV and instr.a is not None and instr.a != dst:
            rep[dst] = rep.get(instr.a, instr.a)
    return rep


def _spread_to_copies(
    state: RangeState, before: RangeState, block: BasicBlock
) -> Optional[RangeState]:
    """Intersect each narrowed register's interval into its copy class."""
    narrowed = {
        reg: interval
        for reg, interval in state.items()
        if before.get(reg, TOP) != interval
    }
    if not narrowed:
        return state
    rep = _copy_representatives(block)
    if not rep:
        return state
    spread = dict(state)
    for reg, interval in narrowed.items():
        root = rep.get(reg, reg)
        for other in set(rep) | set(rep.values()):
            if other == reg or rep.get(other, other) != root:
                continue
            merged = intersect(spread.get(other, TOP), interval)
            if merged is None:
                return None  # equal registers with disjoint ranges: infeasible
            spread[other] = merged
    return spread


def _exclude_point(x: Interval, point: Optional[int]) -> Optional[Interval]:
    """Remove a single value from an interval (only effective at an edge)."""
    if point is None:
        return x
    if x.lo is not None and x.hi is not None and x.lo == x.hi == point:
        return None
    if x.lo is not None and x.lo == point:
        return Interval(x.lo + 1, x.hi)
    if x.hi is not None and x.hi == point:
        return Interval(x.lo, x.hi - 1)
    return x


class RangeAnalysis(DataflowAnalysis[RangeState]):
    """Forward interval analysis with comparison-driven edge refinement."""

    def boundary(self, func: Function) -> RangeState:
        return {}

    def meet(self, left: RangeState, right: RangeState) -> RangeState:
        if left == right:
            return dict(left)
        joined: RangeState = {}
        for reg, interval in left.items():
            other = right.get(reg)
            if other is None:
                continue
            merged = hull(interval, other)
            if merged != TOP:
                joined[reg] = merged
        return joined

    def widen(self, old: RangeState, new: RangeState) -> RangeState:
        widened: RangeState = {}
        for reg, interval in new.items():
            previous = old.get(reg)
            if previous is None:
                continue  # appeared late: drop to unbounded
            lo = previous.lo
            if lo is not None and (interval.lo is None or interval.lo < lo):
                lo = None
            hi = previous.hi
            if hi is not None and (interval.hi is None or interval.hi > hi):
                hi = None
            if lo is not None or hi is not None:
                widened[reg] = Interval(lo, hi)
        return widened

    def transfer(self, block: BasicBlock, state: RangeState) -> RangeState:
        values = dict(state)
        for instr in block.instrs:
            dst = instr.dst
            if dst is None:
                continue
            interval = eval_ranges(instr, values)
            if interval == TOP:
                values.pop(dst, None)
            else:
                values[dst] = interval
        return values

    def edge_transfer(
        self, block: BasicBlock, target: str, state: RangeState
    ) -> Optional[RangeState]:
        term = block.terminator
        if term is None or term.op != Opcode.BR or term.a is None:
            return state
        if term.then_label == term.else_label:
            return state
        taken = target == term.then_label
        cond = state.get(term.a, TOP)

        refined = dict(state)
        if taken:
            excluded = _exclude_point(cond, 0) if cond.contains(0) else cond
            if cond.is_constant() and cond.lo == 0:
                return None  # constant-false condition: edge infeasible
            if excluded is None:
                return None
            refined[term.a] = excluded
        else:
            if not cond.contains(0):
                return None  # condition can never be zero
            refined[term.a] = const(0)

        comparison = _branch_comparison(block)
        if comparison is not None:
            narrowed = _refine_by_comparison(refined, comparison, taken)
            if narrowed is None:
                return None
            refined = narrowed
        spread = _spread_to_copies(refined, state, block)
        if spread is None:
            return None
        refined = spread
        return {
            reg: interval
            for reg, interval in refined.items()
            if interval != TOP
        }


def ranges(func: Function) -> DataflowResult[RangeState]:
    """Solve range analysis for one function."""
    return solve(func, RangeAnalysis())
