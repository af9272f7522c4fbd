"""Structural verification of kernel IR.

The verifier catches codegen bugs early and documents the IR's invariants:

- every branch target is a defined label;
- every register is written before it is read on every path (a
  must-defined query over the CFG that answers exactly as reaching
  definitions would, see
  :func:`repro.analyze.dataflow.first_undefined_read`);
- destination/source types agree with the instruction dtype;
- guard predicates are predicate-typed;
- the body ends with a terminator;
- declared resource usage is consistent (regs_per_thread covers the
  physical registers referenced, when physical names are used).

Every check runs on every compile; the error location (which formats
the offending instruction) is only built when one fails.
"""

from __future__ import annotations

from repro.ptx.cfg import build_cfg
from repro.ptx.instruction import Imm, LabelRef, MemRef, ParamRef, Reg
from repro.ptx.isa import DType, Opcode, NO_DEST
from repro.ptx.module import KernelIR


class VerificationError(ValueError):
    """Raised when a kernel violates an IR invariant."""


def _type_ok(op, expected: DType | None) -> bool:
    if expected is None:
        return True
    if isinstance(op, Reg):
        return op.dtype == expected
    if isinstance(op, Imm):
        if expected.is_float:
            return op.dtype.is_float
        return op.dtype.is_int or op.dtype is DType.PRED
    return True  # SReg / MemRef / ParamRef / LabelRef are checked elsewhere


def _error(kernel: KernelIR, idx: int, ins, problem: str) -> VerificationError:
    """The error for instruction ``idx``; its location string (which
    formats the instruction) is only built for a kernel that fails."""
    return VerificationError(f"{kernel.name}[{idx}] {ins}: {problem}")


def verify_kernel(kernel: KernelIR, strict_types: bool = True) -> None:
    """Validate ``kernel``; raise :class:`VerificationError` on failure."""
    labels = set(kernel.labels())
    instrs = kernel.instructions()
    if not instrs:
        raise VerificationError(f"{kernel.name}: empty body")
    if not instrs[-1].is_terminator:
        raise VerificationError(
            f"{kernel.name}: body must end with a terminator, "
            f"got {instrs[-1].opcode.value}"
        )

    param_names = {p.name for p in kernel.params}

    # repro.analyze imports repro.ptx, so its solver is imported here
    from repro.analyze.dataflow import first_undefined_read

    # Write-before-read over the CFG (any entry path reaching a read
    # without a definition).  CFG construction itself fails on branches
    # to unknown labels; the per-instruction branch-target check below
    # reports those with the proper message, so swallow that here.
    undef: tuple[int, object, str] | None = None
    try:
        undef = first_undefined_read(build_cfg(kernel))
    except ValueError:
        pass
    undef_idx = -1 if undef is None else undef[0]

    # non-predicate registers by name, with the dtype of their first
    # occurrence: the register budget check below counts their slots
    regs: dict[str, DType] = {}

    for idx, ins in enumerate(instrs):
        # branch targets resolve
        if ins.opcode is Opcode.BRA:
            tgt = ins.branch_target
            if tgt is None:
                raise _error(kernel, idx, ins, "branch without label target")
            if tgt not in labels:
                raise _error(kernel, idx, ins, f"undefined label {tgt!r}")

        # guard predicate sanity
        if ins.pred is not None and ins.pred.dtype is not DType.PRED:
            raise _error(kernel, idx, ins, "guard must be predicate-typed")

        # operand inventory
        for s in ins.srcs:
            if isinstance(s, Reg):
                if s.dtype is not DType.PRED:
                    regs.setdefault(s.name, s.dtype)
            elif isinstance(s, MemRef):
                if s.base.dtype is not DType.PRED:
                    regs.setdefault(s.base.name, s.base.dtype)
            elif isinstance(s, ParamRef):
                if ins.opcode is not Opcode.LD:
                    raise _error(kernel, idx, ins,
                                 "parameter reference outside ld.param")
                if s.name not in param_names:
                    raise _error(kernel, idx, ins,
                                 f"unknown parameter {s.name!r}")
            elif isinstance(s, LabelRef) and ins.opcode is not Opcode.BRA:
                raise _error(kernel, idx, ins, "label operand on non-branch")

        # def-before-use on every feasible path
        if idx == undef_idx:
            raise _error(kernel, idx, ins,
                         f"register {undef[2]} read before definition")

        # dst discipline
        if ins.opcode in NO_DEST:
            if ins.dst is not None:
                raise _error(kernel, idx, ins,
                             f"{ins.opcode.value} has no dst")
        else:
            if ins.dst is None:
                raise _error(kernel, idx, ins, "missing destination")
            if ins.dst.dtype is not DType.PRED:
                regs.setdefault(ins.dst.name, ins.dst.dtype)

        # type discipline
        if strict_types and ins.dtype is not None:
            if ins.opcode is Opcode.SETP:
                if ins.dst.dtype is not DType.PRED:
                    raise _error(kernel, idx, ins, "setp dst must be pred")
                for s in ins.srcs:
                    if not _type_ok(s, ins.dtype):
                        raise _error(kernel, idx, ins,
                                     "setp operand type mismatch")
            elif ins.opcode is Opcode.CVT:
                if ins.dst.dtype is not ins.dtype:
                    raise _error(kernel, idx, ins, "cvt dst type mismatch")
            elif ins.opcode is Opcode.MULWIDE:
                if not ins.dst.dtype.is_64bit:
                    raise _error(kernel, idx, ins,
                                 "mul.wide dst must be 64-bit")
            elif ins.opcode is Opcode.LD:
                if ins.dst.dtype is not ins.dtype and not (
                    ins.dst.dtype is DType.S64 and ins.dtype is DType.S64
                ):
                    raise _error(kernel, idx, ins, "ld dst type mismatch")
            elif ins.opcode is Opcode.ST:
                pass  # stored value type checked below via srcs[1]
            elif ins.opcode is Opcode.SELP:
                if ins.dst.dtype is not ins.dtype:
                    raise _error(kernel, idx, ins, "selp dst type mismatch")
            else:
                if ins.dst is not None and ins.dst.dtype is not ins.dtype:
                    raise _error(
                        kernel, idx, ins,
                        f"dst {ins.dst.dtype.value} != "
                        f"instr {ins.dtype.value}",
                    )
                for s in ins.srcs:
                    if not _type_ok(s, ins.dtype):
                        raise _error(kernel, idx, ins,
                                     f"operand type mismatch ({s})")

    # physical register budget consistency: if the kernel reports a register
    # count, the distinct non-predicate physical registers must fit in it
    # (64-bit registers occupy two 32-bit slots)
    if kernel.regs_per_thread:
        phys = [dtype for name, dtype in regs.items()
                if not name.startswith("%v")]
        slots = sum(2 if dtype.is_64bit else 1 for dtype in phys)
        if phys and slots > kernel.regs_per_thread:
            raise VerificationError(
                f"{kernel.name}: uses {slots} register slots but declares "
                f"only {kernel.regs_per_thread}"
            )
