"""Tests for operand and Instruction behaviour."""

import dataclasses

import pytest

from repro.arch.throughput import InstrCategory
from repro.ptx.instruction import (
    Imm,
    Instruction,
    LabelRef,
    MemRef,
    ParamRef,
    Reg,
    SReg,
)
from repro.ptx.isa import CmpOp, DType, MemSpace, Opcode, SRegKind


def r(name, dt=DType.S32):
    return Reg(name, dt)


class TestConstruction:
    def test_setp_requires_cmp(self):
        with pytest.raises(ValueError, match="comparison"):
            Instruction(Opcode.SETP, dtype=DType.S32,
                        dst=r("%p1", DType.PRED), srcs=(r("%r1"), r("%r2")))

    def test_memory_ops_require_space(self):
        with pytest.raises(ValueError, match="memory space"):
            Instruction(Opcode.LD, dtype=DType.F32, dst=r("%f1", DType.F32),
                        srcs=(MemRef(MemSpace.GLOBAL, r("%rd1", DType.S64)),))

    def test_red_requires_space(self):
        with pytest.raises(ValueError, match="memory space"):
            Instruction(Opcode.RED, dtype=DType.F32,
                        srcs=(MemRef(MemSpace.GLOBAL, r("%rd1", DType.S64)),
                              r("%f1", DType.F32)))


class TestRegisterAccounting:
    def test_reads_include_memref_base_and_guard(self):
        mem = MemRef(MemSpace.GLOBAL, r("%rd1", DType.S64), 4)
        ins = Instruction(
            Opcode.LD, dtype=DType.F32, dst=r("%f1", DType.F32),
            srcs=(mem,), space=MemSpace.GLOBAL,
            pred=r("%p1", DType.PRED),
        )
        names = {x.name for x in ins.registers_read()}
        assert names == {"%rd1", "%p1"}
        assert [x.name for x in ins.registers_written()] == ["%f1"]
        assert ins.register_operand_count() == 3

    def test_imm_and_sreg_not_counted(self):
        ins = Instruction(
            Opcode.ADD, dtype=DType.S32, dst=r("%r1"),
            srcs=(SReg(SRegKind.TID_X), Imm(4, DType.S32)),
        )
        assert ins.registers_read() == []
        assert ins.register_operand_count() == 1


class TestProperties:
    def test_branch_properties(self):
        bra = Instruction(Opcode.BRA, srcs=(LabelRef("$L1"),))
        assert bra.is_terminator and bra.is_branch
        assert not bra.is_conditional_branch
        assert bra.branch_target == "$L1"

        cond = bra.with_pred(r("%p1", DType.PRED), negated=True)
        assert cond.is_conditional_branch
        assert cond.pred_negated

    def test_param_load_categorized_as_move(self):
        # constant-bank access, not memory pipeline traffic
        ins = Instruction(Opcode.LD, dtype=DType.S64,
                          dst=r("%rd1", DType.S64),
                          srcs=(ParamRef("A"),), space=MemSpace.PARAM)
        assert ins.category is InstrCategory.MOVE

    def test_global_load_categorized_as_mem(self):
        mem = MemRef(MemSpace.GLOBAL, r("%rd1", DType.S64))
        ins = Instruction(Opcode.LD, dtype=DType.F32,
                          dst=r("%f1", DType.F32), srcs=(mem,),
                          space=MemSpace.GLOBAL)
        assert ins.category is InstrCategory.LDST


class TestRename:
    def test_rename_covers_all_positions(self):
        mem = MemRef(MemSpace.GLOBAL, r("%v1", DType.S64))
        ins = Instruction(
            Opcode.ST, dtype=DType.F32,
            srcs=(mem, r("%v2", DType.F32)),
            space=MemSpace.GLOBAL, pred=r("%v3", DType.PRED),
        )
        mapping = {
            "%v1": r("%rd1", DType.S64),
            "%v2": r("%f1", DType.F32),
            "%v3": r("%p1", DType.PRED),
        }
        out = ins.rename_registers(mapping)
        assert out.srcs[0].base.name == "%rd1"
        assert out.srcs[1].name == "%f1"
        assert out.pred.name == "%p1"
        # original untouched (frozen)
        assert ins.srcs[0].base.name == "%v1"

    def test_rename_keeps_unmapped(self):
        ins = Instruction(Opcode.MOV, dtype=DType.S32, dst=r("%v1"),
                          srcs=(r("%v2"),))
        out = ins.rename_registers({"%v2": r("%r9")})
        assert out.dst.name == "%v1"
        assert out.srcs[0].name == "%r9"

    def test_copies_keep_every_field(self):
        # the copies call the constructor field by field: one given a
        # value for every field (a new field must be added here and to
        # the copies) comes back equal to ``dataclasses.replace``
        ins = Instruction(
            Opcode.SETP, dtype=DType.S32, dst=r("%v1", DType.PRED),
            srcs=(MemRef(MemSpace.GLOBAL, r("%v2", DType.S64), 8),),
            pred=r("%v3", DType.PRED), pred_negated=True, cmp=CmpOp.LT,
            space=MemSpace.GLOBAL, src_dtype=DType.S64,
        )
        for f in dataclasses.fields(Instruction):
            assert getattr(ins, f.name) != f.default, f.name
        p9 = r("%p9", DType.PRED)
        assert ins.with_pred(p9) == dataclasses.replace(
            ins, pred=p9, pred_negated=False)
        assert ins.rename_registers({}) == ins
        renamed = ins.rename_registers({"%v2": r("%rd2", DType.S64)})
        assert renamed == dataclasses.replace(
            ins, srcs=(MemRef(MemSpace.GLOBAL, r("%rd2", DType.S64), 8),))
