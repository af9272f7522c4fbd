"""Tests for loop unrolling and register allocation."""

import numpy as np
import pytest

from repro.arch import K20, M2050
from repro.codegen import dsl
from repro.codegen.compiler import (
    CompileOptions,
    compile_kernel,
    compile_module,
    register_report,
)
from repro.codegen.regalloc import allocate_registers, _live_intervals
from repro.codegen.transforms.unroll import unroll_innermost, unroll_loop
from repro.kernels import get_benchmark
from repro.ptx.isa import DType, Opcode
from repro.sim.counting import exact_counts
from repro.sim.emulator import run_benchmark_emulated
from repro.util.rng import rng_for


class TestUnrollTransform:
    def test_factor_one_is_identity(self, matvec_spec):
        assert unroll_innermost(matvec_spec, 1) is matvec_spec

    def test_bad_factor_rejected(self, matvec_spec):
        with pytest.raises(ValueError):
            unroll_innermost(matvec_spec, 0)

    def test_parallel_loop_not_unrolled(self, matvec_spec):
        out = unroll_innermost(matvec_spec, 4)
        ploops = [s for s in out.body if getattr(s, "parallel", False)]
        assert len(ploops) == 1
        # inner loop was replaced by main + remainder
        inner = [s for s in ploops[0].body if type(s).__name__ == "For"]
        assert len(inner) == 2
        assert inner[0].step == 4 and inner[1].step == 1

    def test_cannot_unroll_parallel_directly(self, matvec_spec):
        ploop = matvec_spec.body[0]
        with pytest.raises(ValueError, match="parallel"):
            unroll_loop(ploop, 2)

    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_unrolled_counts_preserve_work(self, matvec_spec, factor):
        """FMA work (the real computation) is invariant under unrolling."""
        from repro.arch.throughput import InstrCategory

        base = compile_kernel(matvec_spec, CompileOptions(gpu=K20))
        unr = compile_kernel(
            matvec_spec, CompileOptions(gpu=K20, unroll_factor=factor)
        )
        env = {"N": 37}  # deliberately not a multiple of the factor
        cb = exact_counts(base, env, 32, 4)
        cu = exact_counts(unr, env, 32, 4)
        assert cb.by_category[InstrCategory.FP32] == pytest.approx(
            cu.by_category[InstrCategory.FP32]
        )
        # loop overhead must strictly decrease
        assert (cu.by_category[InstrCategory.PRED_CTRL]
                < cb.by_category[InstrCategory.PRED_CTRL])

    @pytest.mark.parametrize("factor", [2, 4])
    def test_unrolled_results_equal(self, factor):
        """Unrolled kernels compute identical results (emulated)."""
        bm = get_benchmark("atax")
        inputs = bm.make_inputs(13, rng_for("unroll-test"))
        outs = {}
        for uf in (1, factor):
            mod = compile_module(
                "atax", list(bm.specs),
                CompileOptions(gpu=K20, unroll_factor=uf),
            )
            o, _ = run_benchmark_emulated(mod, inputs, tc=32, bc=2)
            outs[uf] = o
        for name in bm.output_names:
            np.testing.assert_allclose(
                outs[1][name], outs[factor][name], rtol=1e-5
            )


class TestRegisterAllocation:
    def test_live_interval_loop_extension(self):
        """A value defined before a loop and used inside must survive the
        whole loop (its register may not be reused mid-loop)."""
        from repro.ptx.parser import parse_kernel

        k = parse_kernel("""
.kernel t(.param .s32 N)
.reg 0
.shared 0
.target sm_35
{
  ld.param.s32 %v1, [N];
  mov.s32 %v2, 0;
$L_loop:
  add.s32 %v3, %v2, %v1;
  add.s32 %v2, %v2, 1;
  setp.lt.s32 %v4, %v2, %v1;
  @%v4 bra $L_loop;
  exit;
}
""")
        intervals = _live_intervals(k.body)
        # %v1 (N) is read inside the loop: its interval must reach the latch
        start, end, _ = intervals["%v1"]
        latch_pos = 5  # the bra
        assert end >= latch_pos - 1

    def test_allocation_is_executable(self, matvec_spec):
        """The strongest regalloc test: allocated code still computes the
        right answer (register reuse did not clobber live values)."""
        bm = get_benchmark("matvec2d")
        inputs = bm.make_inputs(16, rng_for("regalloc"))
        mod = compile_module(
            "matvec2d", list(bm.specs), CompileOptions(gpu=K20)
        )
        outs, _ = run_benchmark_emulated(mod, inputs, tc=64, bc=2)
        ref = bm.reference(inputs)
        np.testing.assert_allclose(outs["y"], ref["y"], rtol=2e-3, atol=2e-4)

    def test_regs_per_thread_reported(self, matvec_spec):
        ck = compile_kernel(matvec_spec, CompileOptions(gpu=K20))
        assert 8 <= ck.regs_per_thread <= 64
        # physical names only
        names = {r.name for r in ck.ir.registers_used()}
        assert not any(n.startswith("%v") for n in names)

    def test_64bit_values_cost_two_slots(self):
        N = dsl.sparam("N")
        x, y = dsl.farrays("x", "y")
        n = dsl.ivar("n")
        spec = dsl.kernel("t", [N, x, y],
                          [dsl.pfor(n, N, [y.store(n, x[n])])])
        kep = compile_kernel(spec, CompileOptions(gpu=K20))
        fer = compile_kernel(spec, CompileOptions(gpu=M2050))
        # 64-bit addressing on Kepler uses register pairs -> more registers
        assert kep.regs_per_thread > fer.regs_per_thread

    def test_spill_clamp(self):
        from repro.ptx.module import KernelIR
        from repro.ptx.instruction import Instruction, Reg
        from repro.ptx.isa import DType as DT

        body = []
        prev = None
        regs = []
        for i in range(80):
            dst = Reg(f"%v{i+1}", DT.F32)
            body.append(Instruction(Opcode.MOV, dtype=DT.F32, dst=dst,
                                    srcs=(Imm0,)))
            regs.append(dst)
        # keep everything live to the end
        acc = Reg("%v100", DT.F32)
        body.append(Instruction(Opcode.MOV, dtype=DT.F32, dst=acc,
                                srcs=(Imm0,)))
        for rg in regs:
            body.append(Instruction(Opcode.ADD, dtype=DT.F32, dst=acc,
                                    srcs=(acc, rg)))
        body.append(Instruction(Opcode.EXIT))
        ir = KernelIR("fat", (), body)
        res = allocate_registers(ir)
        assert res.slots == 81  # 80 values and the accumulator
        # Fermi reserves 2 registers and allows 63 per thread
        regs, spilled = register_report(res.slots, M2050)
        assert spilled == 81 + 2 - 63
        assert regs == 63


from repro.ptx.instruction import Imm  # noqa: E402

Imm0 = Imm(0.0, DType.F32)
