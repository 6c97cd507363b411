"""Opcode definitions for the RISC-like intermediate representation.

The IR models the RISC-level operations of the Multiflow Trace (the unit the
paper counts): three-register ALU operations, explicit loads and stores, a
``select`` operation (paper footnote 2), direct and indirect calls, and
two-way conditional branches.  Every executed operation counts as exactly one
instruction in the virtual machine.
"""
from __future__ import annotations

import enum


class Opcode(enum.IntEnum):
    """All IR operations.

    The integer values are also used by the lowered (flat tuple) form that the
    virtual machine executes, so they are stable and explicitly assigned.
    """

    # Data movement / constants.
    CONST = 0       # dst <- immediate
    MOV = 1         # dst <- src
    ADDR = 2        # dst <- address of a global symbol (resolved at lowering)
    FUNCADDR = 3    # dst <- callable index of a function (for indirect calls)

    # ALU.
    BIN = 4         # dst <- a <binop> b
    UN = 5          # dst <- <unop> a
    SELECT = 6      # dst <- (cond != 0) ? a : b   (the Trace "select")

    # Memory.
    LOAD = 7        # dst <- memory[addr]
    STORE = 8       # memory[addr] <- val

    # I/O intrinsics (count as single operations, like any RISC op).
    GETC = 9        # dst <- next input byte, or -1 at end of input
    PUTC = 10       # append low byte of src to the output stream

    # Calls.
    CALL = 11       # dst <- f(args...)          direct call
    ICALL = 12      # dst <- (*freg)(args...)    indirect call

    # Terminators.
    BR = 13         # if cond != 0 goto then_block else goto else_block
    JMP = 14        # goto block
    RET = 15        # return [value]
    HALT = 16       # stop the machine


class BinOp(enum.IntEnum):
    """Binary ALU operations.  Comparisons produce 0 or 1."""

    ADD = 0
    SUB = 1
    MUL = 2
    DIV = 3     # C-style truncating division
    MOD = 4     # C-style remainder (sign follows the dividend)
    AND = 5     # bitwise
    OR = 6      # bitwise
    XOR = 7
    SHL = 8
    SHR = 9     # arithmetic shift right
    EQ = 10
    NE = 11
    LT = 12
    LE = 13
    GT = 14
    GE = 15


class UnOp(enum.IntEnum):
    """Unary ALU operations."""

    NEG = 0     # arithmetic negation
    NOT = 1     # logical not: 1 if operand == 0 else 0
    BNOT = 2    # bitwise complement


def _c_div(a: int, b: int) -> int:
    """C-style truncating integer division (raises on division by zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_mod(a: int, b: int) -> int:
    """C-style remainder: ``a - _c_div(a, b) * b`` (sign of the dividend)."""
    return a - _c_div(a, b) * b


#: Evaluation functions indexed by :class:`BinOp` value.  Shared by the
#: virtual machine and the constant folder so semantics cannot diverge.
BINOP_FUNCS = [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    _c_div,
    _c_mod,
    lambda a, b: a & b,
    lambda a, b: a | b,
    lambda a, b: a ^ b,
    lambda a, b: a << b,
    lambda a, b: a >> b,
    lambda a, b: 1 if a == b else 0,
    lambda a, b: 1 if a != b else 0,
    lambda a, b: 1 if a < b else 0,
    lambda a, b: 1 if a <= b else 0,
    lambda a, b: 1 if a > b else 0,
    lambda a, b: 1 if a >= b else 0,
]

#: Evaluation functions indexed by :class:`UnOp` value.
UNOP_FUNCS = [
    lambda a: -a,
    lambda a: 1 if a == 0 else 0,
    lambda a: ~a,
]

#: Binary operators that are commutative (used by local CSE).
COMMUTATIVE_BINOPS = frozenset(
    {BinOp.ADD, BinOp.MUL, BinOp.AND, BinOp.OR, BinOp.XOR, BinOp.EQ, BinOp.NE}
)

#: Comparison operators, and the operator each one negates to
#: (used to refine ranges on a branch's false edge).
NEGATED_COMPARISON = {
    BinOp.EQ: BinOp.NE,
    BinOp.NE: BinOp.EQ,
    BinOp.LT: BinOp.GE,
    BinOp.LE: BinOp.GT,
    BinOp.GT: BinOp.LE,
    BinOp.GE: BinOp.LT,
}
