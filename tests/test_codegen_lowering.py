"""Tests for lowering: structure, instruction selection, access patterns."""

import copy

import pytest

from repro.arch import K20, M2050
from repro.codegen import dsl
from repro.codegen.ast_nodes import IntConst, VarRef
from repro.codegen.compiler import CompileOptions, compile_kernel
from repro.codegen.lowering import (
    LoweringError,
    classify_access,
    index_stride,
    lower_kernel,
)
from repro.codegen.regions import RegionKind
from repro.kernels import list_benchmarks
from repro.ptx.isa import Opcode


def _ops(ck):
    return [i.opcode for i in ck.ir.instructions()]


def _simple(body_factory, params=None, name="t"):
    N = dsl.sparam("N")
    x, y = dsl.farrays("x", "y")
    n = dsl.ivar("n")
    return dsl.kernel(name, params or [N, x, y],
                      [dsl.pfor(n, N, body_factory(n, x, y))])


class TestIndexStride:
    def test_affine(self):
        i, j, N = VarRef("i"), VarRef("j"), VarRef("N")
        assert index_stride(i * 4 + j, "i") == 4
        assert index_stride(i * 4 + j, "j") == 1
        assert index_stride(i * 4 + j, "k") == 0

    def test_symbolic_coefficient_unknown(self):
        i, N = VarRef("i"), VarRef("N")
        assert index_stride(i * N, "i") is None  # N not a constant

    def test_div_mod_by_constant(self):
        n = VarRef("n")
        assert index_stride(n // IntConst(64), "n") == pytest.approx(1 / 64)
        assert index_stride(n % IntConst(64), "n") == 1

    def test_div_by_parameter_effectively_uniform(self):
        n, N = VarRef("n"), VarRef("N")
        s = index_stride(n // N, "n")
        assert s is not None and abs(s) < 0.5


class TestClassifyAccess:
    def test_coalesced(self):
        n = VarRef("n")
        assert classify_access(n, "n")[0] == "coalesced"

    def test_uniform(self):
        j = VarRef("j")
        assert classify_access(j, "n")[0] == "uniform"

    def test_strided(self):
        n = VarRef("n")
        pattern, stride, _ = classify_access(n * 8, "n")
        assert pattern == "strided" and stride == 8

    def test_seq_stride_tracked(self):
        i, j = VarRef("i"), VarRef("j")
        _, _, seq = classify_access(i * 512 + j, "i", seq_var="j")
        assert seq == 1

    def test_no_parallel_var_is_uniform(self):
        assert classify_access(VarRef("n"), None)[0] == "uniform"


class TestGridStrideStructure:
    def test_parallel_loop_shape(self, matvec_spec):
        lowered = lower_kernel(matvec_spec)
        ops = [i.opcode for i in lowered.ir.instructions()]
        # preamble computes global tid via mad, stride via mul
        assert Opcode.MAD in ops
        assert ops.count(Opcode.EXIT) == 1
        # two loops -> two backward conditional branches
        branches = [i for i in lowered.ir.instructions()
                    if i.is_conditional_branch]
        assert len(branches) == 4  # 2 guards + 2 latches

    def test_region_tree_shape(self, matvec_spec):
        lowered = lower_kernel(matvec_spec)
        root = lowered.root_region
        assert root.kind is RegionKind.ROOT
        assert len(root.children) == 1
        ploop = root.children[0]
        assert ploop.kind is RegionKind.PLOOP
        assert ploop.loop_var == "i"
        assert len(ploop.children) == 1
        assert ploop.children[0].kind is RegionKind.SLOOP

    def test_parallel_extent(self, matvec_spec):
        from repro.codegen.ast_nodes import evaluate_expr

        lowered = lower_kernel(matvec_spec)
        assert evaluate_expr(lowered.parallel_extent, {"N": 37}) == 37

    def test_nested_parallel_rejected(self):
        N = dsl.sparam("N")
        i, j = dsl.ivars("i", "j")
        inner = dsl.pfor(j, N, [])
        spec_body = [dsl.pfor(i, N, [inner])]
        spec = dsl.kernel.__wrapped__ if hasattr(dsl.kernel, "__wrapped__") else None
        # KernelSpec validation catches two parallel loops; lowering catches
        # the nested case
        from repro.codegen.ast_nodes import KernelSpec, ScalarParam

        ks = KernelSpec.__new__(KernelSpec)
        object.__setattr__(ks, "name", "bad")
        object.__setattr__(ks, "params", (ScalarParam("N"),))
        object.__setattr__(ks, "body", tuple(spec_body))
        object.__setattr__(ks, "smem_arrays", ())
        with pytest.raises(LoweringError, match="nested parallel"):
            lower_kernel(ks)


class TestInstructionSelection:
    def test_fma_fusion(self):
        spec = _simple(lambda n, x, y: [y.store(n, x[n] * x[n] + 1.0)])
        ck = compile_kernel(spec, CompileOptions(gpu=K20))
        ops = _ops(ck)
        assert Opcode.FMA in ops

    def test_integer_mad_fusion(self):
        spec = _simple(lambda n, x, y: [y.store(n * 3 + 1, x[n])])
        ck = compile_kernel(spec, CompileOptions(gpu=K20))
        assert Opcode.MAD in _ops(ck)

    def test_pow2_mul_becomes_shift(self):
        spec = _simple(lambda n, x, y: [y.store(n, x[n * 8])])
        ck = compile_kernel(spec, CompileOptions(gpu=K20))
        assert Opcode.SHL in _ops(ck)

    def test_fast_math_shortens_exp(self):
        spec = _simple(lambda n, x, y: [y.store(n, dsl.exp(x[n]))])
        slow = compile_kernel(spec, CompileOptions(gpu=K20, fast_math=False))
        fast = compile_kernel(spec, CompileOptions(gpu=K20, fast_math=True))
        assert len(fast.ir) < len(slow.ir)
        assert Opcode.EX2 in _ops(fast)

    def test_fast_math_div_uses_rcp(self):
        spec = _simple(lambda n, x, y: [y.store(n, x[n] / 3.0)])
        fast = compile_kernel(spec, CompileOptions(gpu=K20, fast_math=True))
        slow = compile_kernel(spec, CompileOptions(gpu=K20, fast_math=False))
        assert Opcode.RCP in _ops(fast)
        assert len(fast.ir) < len(slow.ir)

    def test_addressing_mode_by_architecture(self):
        spec = _simple(lambda n, x, y: [y.store(n, x[n])])
        kep = compile_kernel(spec, CompileOptions(gpu=K20))
        fer = compile_kernel(spec, CompileOptions(gpu=M2050))
        assert Opcode.MULWIDE in _ops(kep)  # 64-bit addressing
        assert Opcode.MULWIDE not in _ops(fer)  # 32-bit addressing
        assert Opcode.SHL in _ops(fer)


class TestPredicationPolicy:
    def test_small_if_predicated(self):
        spec = _simple(lambda n, x, y: [
            dsl.assign("v", x[n]),
            dsl.when(dsl.var("v", "f32").gt(0.0),
                     [dsl.assign("v", dsl.var("v", "f32") * 2.0)]),
            y.store(n, dsl.var("v", "f32")),
        ])
        ck = compile_kernel(spec, CompileOptions(gpu=K20))
        guarded = [i for i in ck.ir.instructions()
                   if i.pred is not None and not i.is_branch]
        assert guarded  # if-converted
        # no THEN region was created
        kinds = {r.kind for r in ck.root_region.walk()}
        assert RegionKind.THEN not in kinds

    def test_large_if_branches(self):
        def big(n, x, y):
            v = dsl.var("v", "f32")
            updates = [dsl.assign("v", x[n])]
            for k in range(6):
                updates.append(dsl.assign("v", v * float(k + 2) + 1.0))
            return [
                dsl.assign("v", x[n]),
                dsl.when(v.gt(0.0), updates[1:],
                         [dsl.assign("v", v - 1.0)] * 4),
                y.store(n, v),
            ]

        spec = _simple(big)
        ck = compile_kernel(spec, CompileOptions(gpu=K20))
        kinds = [r.kind for r in ck.root_region.walk()]
        assert RegionKind.THEN in kinds and RegionKind.ELSE in kinds

    def test_access_pattern_resolves_locals(self):
        # i = n % N: the store through i must classify as coalesced
        N = dsl.sparam("N")
        NN = dsl.sparam("NN")
        x, y = dsl.farrays("x", "y")
        n, i = dsl.ivar("n"), dsl.ivar("i")
        spec = dsl.kernel("t", [N, NN, x, y], [
            dsl.pfor(n, NN, [
                dsl.assign("i", n % N),
                y.store(i, x[n]),
            ]),
        ])
        ck = compile_kernel(spec, CompileOptions(gpu=K20))
        stores = [
            a for r in ck.root_region.walk() for a in r.mem_accesses
            if a.is_store
        ]
        assert stores[0].pattern == "coalesced"


class TestRegionIds:
    @staticmethod
    def _ids(spec):
        ck = compile_kernel(spec, CompileOptions(gpu=K20))
        return [r.id for r in ck.root_region.walk()]

    def test_branch_ids_deterministic_and_unique(self):
        """Region ids depend only on the spec, not on where its nodes
        live in memory: a deep copy compiles to the same ids."""
        branching = 0
        for bm in list_benchmarks():
            for spec in bm.specs:
                ids = self._ids(spec)
                assert self._ids(copy.deepcopy(spec)) == ids, bm.name
                assert len(set(ids)) == len(ids), (bm.name, ids)
                branching += sum(i.startswith("if") for i in ids)
        assert branching > 0  # the corpus has branching ifs to check

    def test_two_branching_ifs_get_distinct_ids(self):
        def body(n, x, y):
            v = dsl.var("v", "f32")
            heavy = [dsl.assign("v", v * float(k + 2) + 1.0)
                     for k in range(6)]
            return [
                dsl.assign("v", x[n]),
                dsl.when(v.gt(0.0), heavy, [dsl.assign("v", v - 1.0)] * 4),
                dsl.when(v.lt(1.0), heavy),
                y.store(n, v),
            ]

        ids = self._ids(_simple(body))
        assert [i for i in ids if i.startswith("if")] == [
            "if1t", "if1e", "if2t"]


class TestErrors:
    def test_unbound_variable(self):
        spec = _simple(lambda n, x, y: [y.store(n, dsl.var("ghost", "f32"))])
        with pytest.raises(LoweringError, match="unbound"):
            lower_kernel(spec)

    def test_store_to_unknown_array(self):
        from repro.codegen.ast_nodes import Store, VarRef

        N = dsl.sparam("N")
        n = dsl.ivar("n")
        spec = dsl.kernel("t", [N], [
            dsl.pfor(n, N, [Store("ghost", n, dsl.f32(1.0))]),
        ])
        with pytest.raises(LoweringError, match="unknown array"):
            lower_kernel(spec)
