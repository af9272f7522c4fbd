"""Operand and instruction types for the PTX-like IR.

An :class:`Instruction` is a single operation with an optional guard
predicate (PTX ``@%p`` / ``@!%p`` syntax).  Kernel bodies are flat lists of
:class:`Instruction` and :class:`Label` items; the CFG builder recovers block
structure from labels and terminators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.ptx.isa import (
    TERMINATORS,
    CmpOp,
    DType,
    MemSpace,
    Opcode,
    SRegKind,
    categorize,
)
from repro.arch.throughput import InstrCategory


@dataclass(frozen=True)
class Reg:
    """A (virtual or physical) register.

    Virtual registers carry codegen-assigned names like ``%v12``; after
    register allocation names follow PTX class conventions (``%r`` s32,
    ``%rd`` s64, ``%f`` f32, ``%fd`` f64, ``%p`` pred).
    """

    name: str
    dtype: DType

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm:
    """An immediate constant."""

    value: Union[int, float]
    dtype: DType

    def __str__(self) -> str:
        if self.dtype.is_float:
            return repr(float(self.value))
        return str(int(self.value))


@dataclass(frozen=True)
class SReg:
    """A special read-only register (thread/block indices)."""

    kind: SRegKind

    @property
    def dtype(self) -> DType:
        return DType.S32

    def __str__(self) -> str:
        return f"%{self.kind.value}"


@dataclass(frozen=True)
class ParamRef:
    """A reference to a kernel parameter by name (``ld.param`` source)."""

    name: str

    def __str__(self) -> str:
        return f"[{self.name}]"


@dataclass(frozen=True)
class MemRef:
    """A memory operand: ``[base + offset]`` in some state space."""

    space: MemSpace
    base: Reg
    offset: int = 0

    def __str__(self) -> str:
        if self.offset:
            return f"[{self.base.name}+{self.offset}]"
        return f"[{self.base.name}]"


@dataclass(frozen=True)
class LabelRef:
    """A branch target."""

    name: str

    def __str__(self) -> str:
        return self.name


Operand = Union[Reg, Imm, SReg, ParamRef, MemRef, LabelRef]


@dataclass(frozen=True)
class Label:
    """A label marker inside a kernel body."""

    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


#: Opcodes that address memory and so need a state space.
_MEMORY_OPS = (Opcode.LD, Opcode.ST, Opcode.RED)


@dataclass(frozen=True)
class Instruction:
    """One machine operation.

    Attributes
    ----------
    opcode, dtype:
        The operation and its operating type (``None`` for pure control ops
        such as ``bra``/``bar.sync``).
    dst:
        Destination register, or ``None`` for stores/branches/barriers.
    srcs:
        Source operands, in PTX order.
    pred / pred_negated:
        Optional guard predicate (``@%p`` or ``@!%p``).
    cmp:
        Comparison operator, only for ``setp``.
    space:
        Memory space, only for ``ld``/``st``.
    src_dtype:
        Source type for ``cvt`` (dst type is ``dtype``).
    """

    opcode: Opcode
    dtype: DType | None = None
    dst: Reg | None = None
    srcs: tuple = ()
    pred: Reg | None = None
    pred_negated: bool = False
    cmp: CmpOp | None = None
    space: MemSpace | None = None
    src_dtype: DType | None = None

    def __post_init__(self) -> None:
        if self.opcode is Opcode.SETP and self.cmp is None:
            raise ValueError("setp requires a comparison operator")
        if self.opcode in _MEMORY_OPS and self.space is None:
            raise ValueError(f"{self.opcode.value} requires a memory space")

    # -- analysis helpers -------------------------------------------------

    @property
    def category(self) -> InstrCategory:
        """Paper Table II category of this instruction.

        Parameter-space loads are constant-bank accesses, not memory
        pipeline traffic; they count as data movement (``MoveIns``), which
        keeps the FLOPS/MEM intensity ratio meaningful.
        """
        if self.opcode is Opcode.LD and self.space is MemSpace.PARAM:
            return InstrCategory.MOVE
        return categorize(self.opcode, self.dtype)

    def registers_read(self) -> list[Reg]:
        """All register operands read (sources, memory bases, guard)."""
        regs: list[Reg] = []
        for s in self.srcs:
            if isinstance(s, Reg):
                regs.append(s)
            elif isinstance(s, MemRef):
                regs.append(s.base)
        if self.pred is not None:
            regs.append(self.pred)
        return regs

    def registers_written(self) -> list[Reg]:
        return [self.dst] if self.dst is not None else []

    def register_operand_count(self) -> int:
        """Number of register operands touched -- the paper's ``Regs`` metric
        counts register traffic per instruction.  Equal to
        ``len(registers_read()) + len(registers_written())``."""
        n = (self.dst is not None) + (self.pred is not None)
        for s in self.srcs:
            if isinstance(s, (Reg, MemRef)):
                n += 1
        return n

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    @property
    def is_branch(self) -> bool:
        return self.opcode is Opcode.BRA

    @property
    def is_conditional_branch(self) -> bool:
        return self.opcode is Opcode.BRA and self.pred is not None

    @property
    def branch_target(self) -> str | None:
        if self.opcode is Opcode.BRA and self.srcs:
            tgt = self.srcs[0]
            if isinstance(tgt, LabelRef):
                return tgt.name
        return None

    # The copies below call the constructor with every field, in field
    # order, rather than ``dataclasses.replace``: the same object (and the
    # same ``__post_init__`` checks) at a fraction of the cost, which
    # matters because lowering and register allocation copy every
    # instruction.

    def with_pred(self, pred: Reg, negated: bool = False) -> "Instruction":
        """Return a guarded copy of this instruction."""
        return Instruction(self.opcode, self.dtype, self.dst, self.srcs,
                           pred, negated, self.cmp, self.space,
                           self.src_dtype)

    def rename_registers(self, mapping: dict[str, Reg]) -> "Instruction":
        """Return a copy with registers renamed through ``mapping``.

        Registers absent from the mapping are kept as-is (used by the
        register allocator, which maps virtual names to physical ones).
        """
        get = mapping.get
        srcs = []
        for op in self.srcs:
            if isinstance(op, Reg):
                op = get(op.name, op)
            elif isinstance(op, MemRef):
                op = MemRef(op.space, get(op.base.name, op.base), op.offset)
            srcs.append(op)
        dst, pred = self.dst, self.pred
        return Instruction(
            self.opcode, self.dtype,
            None if dst is None else get(dst.name, dst),
            tuple(srcs),
            None if pred is None else get(pred.name, pred),
            self.pred_negated, self.cmp, self.space, self.src_dtype,
        )

    def __str__(self) -> str:
        from repro.ptx.printer import format_instruction

        return format_instruction(self)


BodyItem = Union[Instruction, Label]
