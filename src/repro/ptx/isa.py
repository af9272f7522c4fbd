"""Opcodes, data types and instruction categorization.

The opcode set is a compact PTX subset sufficient for the loop-nest kernels
the paper tunes (dense linear algebra and stencils): integer/floating
arithmetic, fused multiply-add, comparisons and selects, conversions,
special-function ops, loads/stores across memory spaces, branches and
barriers.

:func:`categorize` maps an (opcode, dtype) pair to the paper's Table II
category, which is the basis of every instruction-mix metric in
:mod:`repro.core.instruction_mix`.
"""

from __future__ import annotations

import enum
import functools

from repro.arch.throughput import InstrCategory


class DType(enum.Enum):
    """Operand data types (PTX naming)."""

    PRED = "pred"
    S32 = "s32"
    U32 = "u32"
    S64 = "s64"
    F32 = "f32"
    F64 = "f64"

    @property
    def nbytes(self) -> int:
        return _NBYTES[self]

    @property
    def is_float(self) -> bool:
        return self in (DType.F32, DType.F64)

    @property
    def is_int(self) -> bool:
        return self in (DType.S32, DType.U32, DType.S64)

    @property
    def is_64bit(self) -> bool:
        return self in (DType.S64, DType.F64)


_NBYTES = {
    DType.PRED: 1,
    DType.S32: 4,
    DType.U32: 4,
    DType.S64: 8,
    DType.F32: 4,
    DType.F64: 8,
}


class MemSpace(enum.Enum):
    """PTX state spaces relevant to our kernels."""

    GLOBAL = "global"
    SHARED = "shared"
    PARAM = "param"
    LOCAL = "local"


class CmpOp(enum.Enum):
    """Comparison operators for ``setp``."""

    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"


class SRegKind(enum.Enum):
    """Special (read-only) registers."""

    TID_X = "tid.x"
    NTID_X = "ntid.x"
    CTAID_X = "ctaid.x"
    NCTAID_X = "nctaid.x"
    TID_Y = "tid.y"
    NTID_Y = "ntid.y"
    CTAID_Y = "ctaid.y"
    NCTAID_Y = "nctaid.y"
    LANEID = "laneid"


class Opcode(enum.Enum):
    """The instruction opcodes of the virtual ISA."""

    # arithmetic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MULWIDE = "mul.wide"  # 32-bit operands, 64-bit result (addressing)
    MAD = "mad"  # d = a*b + c (integer) / fma (float)
    FMA = "fma"
    DIV = "div"
    NEG = "neg"
    ABS = "abs"
    MIN = "min"
    MAX = "max"
    # bitwise / shift
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    # compare / select
    SETP = "setp"
    SELP = "selp"
    # conversion
    CVT = "cvt"
    # special function unit
    RCP = "rcp"
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    EX2 = "ex2"
    LG2 = "lg2"
    SIN = "sin"
    COS = "cos"
    # data movement
    MOV = "mov"
    LD = "ld"
    ST = "st"
    RED = "red"  # atomic reduction add to memory
    # control
    BRA = "bra"
    BAR = "bar.sync"
    RET = "ret"
    EXIT = "exit"


#: Opcodes executed by the special function unit; always LogSinCos category.
SFU_OPS = frozenset(
    {Opcode.RCP, Opcode.SQRT, Opcode.RSQRT, Opcode.EX2, Opcode.LG2,
     Opcode.SIN, Opcode.COS, Opcode.DIV}
)

#: Opcodes that end a basic block.
TERMINATORS = frozenset({Opcode.BRA, Opcode.RET, Opcode.EXIT})

#: Opcodes with no destination register.
NO_DEST = frozenset(
    {Opcode.ST, Opcode.RED, Opcode.BRA, Opcode.BAR, Opcode.RET, Opcode.EXIT}
)

_FLOAT_ARITH = frozenset(
    {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.MAD, Opcode.FMA,
     Opcode.NEG, Opcode.ABS}
)
_INT_ARITH = frozenset(
    {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.MULWIDE, Opcode.MAD,
     Opcode.NEG, Opcode.ABS}
)
_SHIFT_LOGIC = frozenset(
    {Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT, Opcode.SHL, Opcode.SHR}
)


@functools.cache
def categorize(opcode: Opcode, dtype: DType | None) -> InstrCategory:
    """Map an (opcode, dtype) pair to its paper Table II category.

    FMA counts as a single instruction of its dtype's floating class, like
    the hardware issue slot it occupies.  Divides and transcendental ops go
    to the special-function (LogSinCos) category on every architecture.

    Memoized: lowering asks once per emitted instruction, and the memo
    holds at most one entry per (opcode, dtype) pair of the ISA.
    """
    if opcode in SFU_OPS:
        return InstrCategory.LOG_SIN_COS
    if opcode in (Opcode.MIN, Opcode.MAX, Opcode.SELP):
        return InstrCategory.COMP_MINMAX
    if opcode in _SHIFT_LOGIC:
        return InstrCategory.SHIFT
    if opcode is Opcode.CVT:
        if dtype is not None and dtype.is_64bit:
            return InstrCategory.CONV64
        return InstrCategory.CONV32
    if opcode in (Opcode.LD, Opcode.ST, Opcode.RED):
        return InstrCategory.LDST
    if opcode in (Opcode.SETP, Opcode.BRA, Opcode.BAR, Opcode.RET, Opcode.EXIT):
        return InstrCategory.PRED_CTRL
    if opcode is Opcode.MOV:
        return InstrCategory.MOVE
    if opcode in _FLOAT_ARITH and dtype is not None and dtype.is_float:
        return InstrCategory.FP64 if dtype is DType.F64 else InstrCategory.FP32
    if opcode in _INT_ARITH:
        return InstrCategory.INT_ADD32
    raise ValueError(f"cannot categorize {opcode} with dtype {dtype}")


def opcode_category(opcode: Opcode, dtype: DType | None = None) -> str:
    """Human-readable Table II category label for (opcode, dtype)."""
    return categorize(opcode, dtype).value
