"""Dataflow framework units: solver, reaching defs, must-defined, liveness,
guards."""

import random

import pytest

from repro.analyze.dataflow import (
    ALWAYS,
    UNDEF,
    Guard,
    GuardedDefinitions,
    Liveness,
    ReachingDefinitions,
    first_undefined_read,
    infeasible_edges,
    linear_blocks,
)
from repro.arch import K20, M2050
from repro.codegen.compiler import CompileOptions, compile_module
from repro.fuzz import generate_program
from repro.kernels import BENCHMARKS, get_benchmark
from repro.ptx.cfg import build_cfg
from repro.ptx.instruction import Imm, Instruction, Reg
from repro.ptx.isa import CmpOp, DType, Opcode
from repro.ptx.module import KernelIR, KernelParam
from repro.ptx.parser import parse_kernel
from repro.ptx.verifier import VerificationError, verify_kernel


def _kernel(body: str, params=".param .s32 N, .param .f32* x", regs=8):
    text = (
        f".kernel k({params})\n.reg {regs}\n.shared 0\n.target sm_35\n"
        "{\n" + body + "\n}"
    )
    return parse_kernel(text)


def _compiled(name: str):
    bench = get_benchmark(name)
    module = compile_module(
        bench.name, list(bench.specs), CompileOptions(gpu=K20)
    )
    return next(iter(module))


_R = {i: Reg(f"%r{i}", DType.S32) for i in range(1, 6)}
_P = Reg("%p1", DType.PRED)


def _guarded_ir(read_negated: bool) -> KernelIR:
    """%r2 defined under @%p1, read back under @%p1 or @!%p1."""
    body = [
        Instruction(Opcode.MOV, DType.S32, _R[1], (Imm(7, DType.S32),)),
        Instruction(Opcode.SETP, DType.S32, _P,
                    (_R[1], Imm(0, DType.S32)), cmp=CmpOp.GT),
        Instruction(Opcode.MOV, DType.S32, _R[2], (Imm(1, DType.S32),),
                    pred=_P),
        Instruction(Opcode.ADD, DType.S32, _R[3],
                    (_R[2], Imm(1, DType.S32)), pred=_P,
                    pred_negated=read_negated),
        Instruction(Opcode.EXIT),
    ]
    return KernelIR(
        name="guarded", params=(KernelParam("N", DType.S32, False),),
        body=body, regs_per_thread=4, static_smem_bytes=0,
    )


class TestLinearBlocks:
    def test_global_indices_cover_the_body(self):
        ck = _compiled("dot")
        cfg = build_cfg(ck.ir)
        blocks = linear_blocks(cfg)
        # starts are a running sum of block lengths, in body order
        total = 0
        for name, block, start in blocks:
            assert start == total
            total += len(block.instructions)
        assert total == len(ck.ir.instructions())


class TestReachingDefinitions:
    def test_compiled_corpus_has_no_undefined_reads(self):
        for name in BENCHMARKS:
            ck = _compiled(name)
            assert first_undefined_read(build_cfg(ck.ir)) is None, name

    def test_flags_read_of_never_written_register(self):
        k = _kernel("  add.s32 %r1, %r2, %r3;\n  exit;")
        hit = first_undefined_read(build_cfg(k))
        assert hit is not None
        idx, _ins, reg = hit
        assert (idx, reg) == (0, "%r2")

    def test_one_armed_definition_still_reaches_undef(self):
        # %r2 written only on the taken path; the fall-through still
        # carries the synthetic UNDEF site to the join
        k = _kernel(
            "  ld.param.s32 %r1, [N];\n"
            "  setp.gt.s32 %p1, %r1, 0;\n"
            "  @%p1 bra $L_then;\n"
            "  bra $L_join;\n"
            "$L_then:\n"
            "  mov.s32 %r2, 1;\n"
            "$L_join:\n"
            "  add.s32 %r3, %r2, 1;\n"
            "  exit;",
        )
        cfg = build_cfg(k)
        hit = first_undefined_read(cfg)
        assert hit is not None and hit[2] == "%r2"
        rd = ReachingDefinitions(cfg).solve()
        sites = rd.block_in["$L_join"]["%r2"]
        assert UNDEF in sites and len(sites) == 2

    def test_verifier_delegates_with_same_message(self):
        k = _kernel("  add.s32 %r1, %r2, %r3;\n  exit;")
        with pytest.raises(
            VerificationError,
            match=r"k\[0\].*register %r2 read before definition",
        ):
            verify_kernel(k)

    def test_verifier_accepts_loop_carried_registers(self):
        # pre-initialized before the header, redefined in the latch --
        # the structured shape RD must prove defined
        verify_kernel(_compiled("dot").ir)


def _reference_first_undefined_read(cfg):
    """The query ``first_undefined_read`` answers, asked of
    :class:`ReachingDefinitions` directly: the first read (in linear
    body order) whose reaching set contains :data:`UNDEF`."""
    rd = ReachingDefinitions(cfg).solve()
    for name, block, start in linear_blocks(cfg):
        for off, ins in enumerate(block.instructions):
            reaching = rd.reaching_at(name, off)
            for r in ins.registers_read():
                if UNDEF in reaching.get(r.name, frozenset({UNDEF})):
                    return start + off, ins, r.name
    return None


def _drop_one_definition(ir: KernelIR, rng: random.Random) -> KernelIR:
    """``ir`` without one randomly chosen instruction defining a register
    that is read somewhere."""
    read = {r.name for ins in ir.instructions()
            for r in ins.registers_read()}
    defs = [i for i, it in enumerate(ir.body)
            if isinstance(it, Instruction) and it.dst is not None
            and it.dst.name in read]
    drop = rng.choice(defs)
    return KernelIR(name=ir.name, params=ir.params,
                    body=ir.body[:drop] + ir.body[drop + 1:])


def _corpus_and_fuzz_kernels():
    for name, bench in sorted(BENCHMARKS.items()):
        for gpu in (M2050, K20):
            for uif in (1, 3):
                module = compile_module(
                    name, list(bench.specs),
                    CompileOptions(gpu=gpu, unroll_factor=uif))
                for ck in module:
                    yield f"{name}/{gpu.name}/uif{uif}/{ck.name}", ck.ir
    for seed in range(200):
        spec = generate_program(seed).spec
        ck = next(iter(compile_module(spec.name, [spec],
                                      CompileOptions(gpu=K20))))
        yield f"fuzz{seed}", ck.ir


class TestMustDefinedEquivalence:
    """``first_undefined_read`` runs on :class:`MustDefined`; it must
    give exactly the answer of a reaching-definitions query."""

    def test_equals_reaching_definitions_query(self):
        rng = random.Random("first-undefined-read")
        kernels = flagged = pruned = 0
        for label, ir in _corpus_and_fuzz_kernels():
            variants = [ir] + [_drop_one_definition(ir, rng)
                               for _ in range(3)]
            for k in variants:
                cfg = build_cfg(k)
                got = first_undefined_read(cfg)
                assert got == _reference_first_undefined_read(cfg), label
                kernels += 1
                flagged += got is not None
                pruned += bool(infeasible_edges(cfg))
        assert kernels >= 4 * 260
        # the mutants leave reads to find, and pruning is exercised
        assert flagged > kernels // 8
        assert pruned > 0

    @pytest.mark.parametrize("cmp, flagged", [("lt", True), ("ge", False)])
    def test_loop_entry_decided_by_constants(self, cmp, flagged):
        # 0 < 5 holds, so the loop is entered with %r2 undefined; with
        # 0 >= 5 the only entry is refuted, no feasible path reaches the
        # loop, and its read is not flagged (the header's first visit
        # starts from the all-undefined boundary, which must not stick)
        k = _kernel(
            "  mov.s32 %r1, 0;\n"
            f"  setp.{cmp}.s32 %p1, %r1, 5;\n"
            "  @%p1 bra $L_loop;\n"
            "  bra $L_end;\n"
            "$L_loop:\n"
            "  add.s32 %r2, %r2, 1;\n"
            "  setp.lt.s32 %p2, %r2, 10;\n"
            "  @%p2 bra $L_loop;\n"
            "$L_end:\n"
            "  exit;",
        )
        cfg = build_cfg(k)
        assert infeasible_edges(cfg)
        got = first_undefined_read(cfg)
        assert got == _reference_first_undefined_read(cfg)
        assert (got is not None) == flagged
        if flagged:
            assert got[2] == "%r2"


class TestLiveness:
    def test_straight_line_live_sets(self):
        k = _kernel(
            "  ld.param.s32 %r1, [N];\n"
            "  add.s32 %r2, %r1, 1;\n"
            "  add.s32 %r3, %r2, %r1;\n"
            "  exit;",
        )
        cfg = build_cfg(k)
        lv = Liveness(cfg).solve()
        entry = cfg.entry_block
        assert lv.live_out(entry) == frozenset()
        assert lv.live_in(entry) == frozenset()

    def test_loop_carried_register_live_at_latch(self):
        ck = _compiled("dot")
        cfg = build_cfg(ck.ir)
        lv = Liveness(cfg).solve()
        loops = cfg.natural_loops()
        assert loops
        # something must be live around every back edge of a real loop
        assert all(lv.live_out(loop.latch) for loop in loops)


class TestGuardedDefinitions:
    def _state_at_read(self, k: KernelIR) -> dict:
        cfg = build_cfg(k)
        gd = GuardedDefinitions(cfg).solve()
        name = cfg.entry_block
        state = dict(gd.block_in[name])
        for ins in cfg.blocks[name].instructions[:3]:
            gd._transfer(ins, state)
        return state

    def test_same_guard_read_is_covered(self):
        k = _guarded_ir(read_negated=False)
        state = self._state_at_read(k)
        read = k.instructions()[3]
        assert GuardedDefinitions.read_ok(read, "%r2", state)

    def test_opposite_guard_read_is_not(self):
        k = _guarded_ir(read_negated=True)
        state = self._state_at_read(k)
        read = k.instructions()[3]
        assert not GuardedDefinitions.read_ok(read, "%r2", state)

    def test_both_polarities_promote_to_always(self):
        state: dict = {}
        write = Instruction(Opcode.MOV, DType.S32, _R[2],
                            (Imm(1, DType.S32),), pred=_P)
        GuardedDefinitions._transfer(write, state)
        assert state["%r2"] == frozenset({Guard("%p1", False)})
        write_neg = Instruction(Opcode.MOV, DType.S32, _R[2],
                                (Imm(2, DType.S32),), pred=_P,
                                pred_negated=True)
        GuardedDefinitions._transfer(write_neg, state)
        assert state["%r2"] is ALWAYS

    def test_predicate_redefinition_invalidates_guards(self):
        state: dict = {}
        write = Instruction(Opcode.MOV, DType.S32, _R[2],
                            (Imm(1, DType.S32),), pred=_P)
        GuardedDefinitions._transfer(write, state)
        redef = Instruction(Opcode.SETP, DType.S32, _P,
                            (_R[1], Imm(5, DType.S32)), cmp=CmpOp.LT)
        GuardedDefinitions._transfer(redef, state)
        assert state["%r2"] == frozenset()
