"""Tests for the IR verifier: valid code passes, violations raise."""

import pytest

from repro.arch import ALL_GPUS
from repro.codegen.compiler import CompileOptions, compile_kernel
from repro.kernels import BENCHMARKS
from repro.ptx.instruction import Imm, Instruction, Label, LabelRef, ParamRef, Reg
from repro.ptx.isa import CmpOp, DType, MemSpace, Opcode
from repro.ptx.module import KernelIR, KernelParam
from repro.ptx.parser import parse_kernel
from repro.ptx.verifier import VerificationError, verify_kernel


def _kernel(body: str, params=".param .s32 N, .param .f32* x", regs=8):
    text = (
        f".kernel k({params})\n.reg {regs}\n.shared 0\n.target sm_35\n"
        "{\n" + body + "\n}"
    )
    return parse_kernel(text)


class TestValidKernels:
    def test_all_compiled_benchmarks_verify(self):
        """Every benchmark x architecture compilation must verify."""
        for name, bm in BENCHMARKS.items():
            for gpu in ALL_GPUS:
                for spec in bm.specs:
                    ck = compile_kernel(
                        spec,
                        CompileOptions(gpu=gpu, unroll_factor=2,
                                       fast_math=True),
                    )
                    verify_kernel(ck.ir)  # compile already verifies; explicit

    def test_minimal_kernel(self):
        verify_kernel(_kernel("  exit;"))


class TestViolations:
    def test_missing_terminator(self):
        k = _kernel("  ld.param.s32 %r1, [N];")
        with pytest.raises(VerificationError, match="terminator"):
            verify_kernel(k)

    def test_undefined_label(self):
        k = _kernel("  bra $L_nowhere;\n  exit;")
        with pytest.raises(VerificationError, match="undefined label"):
            verify_kernel(k)

    def test_read_before_definition(self):
        k = _kernel("  add.s32 %r1, %r2, %r3;\n  exit;")
        with pytest.raises(VerificationError, match="read before definition"):
            verify_kernel(k)

    def test_unknown_parameter(self):
        k = _kernel("  ld.param.s32 %r1, [Q];\n  exit;")
        with pytest.raises(VerificationError, match="unknown parameter"):
            verify_kernel(k)

    def test_type_mismatch(self):
        k = _kernel(
            "  ld.param.s32 %r1, [N];\n"
            "  add.f32 %f1, %r1, %r1;\n  exit;"
        )
        with pytest.raises(VerificationError, match="type mismatch"):
            verify_kernel(k)

    def test_register_budget_exceeded(self):
        # declares 2 registers but uses 3 distinct 32-bit slots
        k = _kernel(
            "  ld.param.s32 %r1, [N];\n"
            "  add.s32 %r2, %r1, 1;\n"
            "  add.s32 %r3, %r2, 1;\n  exit;",
            regs=2,
        )
        with pytest.raises(VerificationError,
                           match="uses 3 register slots but declares only 2"):
            verify_kernel(k)

    def test_setp_dst_must_be_pred(self):
        k = _kernel(
            "  ld.param.s32 %r1, [N];\n"
            "  setp.lt.s32 %r2, %r1, %r1;\n  exit;"
        )
        with pytest.raises(VerificationError, match="setp dst"):
            verify_kernel(k)


# Kernels built directly from IR objects for the checks the tests above
# do not reach.  Each breaks one rule, after defining what it reads.
_R1, _R2 = Reg("%r1", DType.S32), Reg("%r2", DType.S32)
_F1 = Reg("%f1", DType.F32)
_P1 = Reg("%p1", DType.PRED)
_DEFS = [
    Instruction(Opcode.MOV, DType.S32, _R1, (Imm(1, DType.S32),)),
    Instruction(Opcode.MOV, DType.S32, _R2, (Imm(2, DType.S32),)),
    Instruction(Opcode.MOV, DType.F32, _F1, (Imm(1.0, DType.F32),)),
    Instruction(Opcode.SETP, DType.S32, _P1, (_R1, _R2), cmp=CmpOp.LT),
]

_BAD = {
    "branch without label target": Instruction(Opcode.BRA),
    "guard must be predicate-typed": Instruction(
        Opcode.MOV, DType.S32, _R1, (_R2,), pred=_R2),
    "parameter reference outside ld.param": Instruction(
        Opcode.MOV, DType.S32, _R1, (ParamRef("N"),)),
    "label operand on non-branch": Instruction(
        Opcode.MOV, DType.S32, _R1, (LabelRef("$L_end"),)),
    "bar.sync has no dst": Instruction(Opcode.BAR, dst=_R1),
    "missing destination": Instruction(
        Opcode.ADD, DType.S32, None, (_R1, _R2)),
    "setp operand type mismatch": Instruction(
        Opcode.SETP, DType.S32, _P1, (_F1, _R2), cmp=CmpOp.LT),
    "cvt dst type mismatch": Instruction(
        Opcode.CVT, DType.F32, _R2, (_R1,), src_dtype=DType.S32),
    "mul.wide dst must be 64-bit": Instruction(
        Opcode.MULWIDE, DType.S64, _R2, (_R1, Imm(4, DType.S32)),
        src_dtype=DType.S32),
    "ld dst type mismatch": Instruction(
        Opcode.LD, DType.F32, _R2, (ParamRef("N"),), space=MemSpace.PARAM),
    "selp dst type mismatch": Instruction(
        Opcode.SELP, DType.F32, _R2, (_F1, _F1, _P1)),
    "dst s32 != instr f32": Instruction(
        Opcode.ADD, DType.F32, _R2, (_F1, _F1)),
}


def _ir(body) -> KernelIR:
    return KernelIR(
        name="k",
        params=(KernelParam("N", DType.S32), KernelParam("x", DType.F32, True)),
        body=body,
    )


class TestEveryCheck:
    """One failing kernel per check, matched by its whole message, so
    dropping any check fails a test."""

    def test_empty_body(self):
        with pytest.raises(VerificationError, match="k: empty body"):
            verify_kernel(_ir([Label("$L_end")]))

    def test_definitions_alone_verify(self):
        verify_kernel(_ir(_DEFS + [Label("$L_end"),
                                   Instruction(Opcode.EXIT)]))

    @pytest.mark.parametrize("message", list(_BAD))
    def test_violation(self, message):
        bad = _BAD[message]
        body = _DEFS + [bad, Label("$L_end"), Instruction(Opcode.EXIT)]
        at = f"k[{len(_DEFS)}] {bad}: "
        with pytest.raises(VerificationError) as err:
            verify_kernel(_ir(body))
        assert str(err.value) == at + message
