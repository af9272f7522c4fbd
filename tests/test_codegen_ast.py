"""Tests for the loop-nest AST: construction, typing, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.codegen.ast_nodes import (
    Assign,
    BinOp,
    Call,
    Cmp,
    FloatConst,
    For,
    If,
    IntConst,
    Store,
    VarRef,
    evaluate_expr,
    evaluate_expr_numpy,
    stmt_exprs,
    substitute,
    substitute_stmt,
    walk_stmts,
)
from repro.codegen import dsl
from repro.ptx.isa import DType


class TestExprBuilding:
    def test_operators_build_binops(self):
        n = VarRef("n")
        e = (n * 4 + 1) - 2
        assert isinstance(e, BinOp) and e.op == "-"
        assert str(e) == "(((n * 4) + 1) - 2)"

    def test_dtype_promotion(self):
        i = VarRef("i", DType.S32)
        f = VarRef("x", DType.F32)
        d = VarRef("y", DType.F64)
        assert (i + i).dtype is DType.S32
        assert (i + f).dtype is DType.F32
        assert (f + d).dtype is DType.F64

    def test_comparisons(self):
        n = VarRef("n")
        c = n.lt(5)
        assert isinstance(c, Cmp) and c.dtype is DType.PRED

    def test_bool_constants_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            VarRef("n") + True

    def test_invalid_binop_rejected(self):
        with pytest.raises(ValueError, match="unknown binary op"):
            BinOp("**", IntConst(1), IntConst(2))

    def test_invalid_intrinsic_rejected(self):
        with pytest.raises(ValueError, match="unknown intrinsic"):
            Call("tan", (IntConst(1),))


class TestStatements:
    def test_for_requires_positive_step(self):
        with pytest.raises(ValueError, match="step"):
            For("i", IntConst(0), IntConst(4), (), step=0)

    def test_loop_ids_unique(self):
        a = For("i", IntConst(0), IntConst(4), ())
        b = For("i", IntConst(0), IntConst(4), ())
        assert a.loop_id != b.loop_id

    def test_walk_stmts_depth_first(self):
        inner = Assign("s", FloatConst(0.0))
        loop = For("i", IntConst(0), IntConst(4), (inner,))
        cond = If(VarRef("i").lt(2), (loop,))
        stmts = list(walk_stmts((cond,)))
        assert stmts == [cond, loop, inner]

    def test_stmt_exprs(self):
        s = Store("y", VarRef("i"), FloatConst(1.0))
        assert len(stmt_exprs(s)) == 2


class TestEvaluation:
    def test_arithmetic(self):
        e = (VarRef("n") * 3 + 1) // 2
        assert evaluate_expr(e, {"n": 5}) == 8

    def test_c_division_truncates(self):
        e = BinOp("/", VarRef("a"), VarRef("b"))
        assert evaluate_expr(e, {"a": 7, "b": 2}) == 3

    def test_intrinsics(self):
        e = Call("exp", (FloatConst(1.0),))
        assert evaluate_expr(e, {}) == pytest.approx(math.e)

    def test_unbound_raises(self):
        with pytest.raises(KeyError, match="unbound"):
            evaluate_expr(VarRef("zz"), {})

    def test_numpy_matches_scalar(self):
        n = VarRef("n")
        e = dsl.either((n % 7).eq(0), (n // 7).eq(3))
        arr = np.arange(100, dtype=np.int64)
        vec = evaluate_expr_numpy(e, {"n": arr})
        scalar = [bool(evaluate_expr(e, {"n": int(v)})) for v in arr]
        assert vec.tolist() == scalar

    @given(st.integers(0, 10_000), st.integers(1, 512))
    def test_numpy_divmod_property(self, n, c):
        q = BinOp("//", VarRef("n"), IntConst(c))
        m = BinOp("%", VarRef("n"), IntConst(c))
        assert evaluate_expr(q, {"n": n}) == n // c
        assert evaluate_expr(m, {"n": n}) == n % c


class TestSubstitution:
    def test_substitute_expr(self):
        e = VarRef("i") * VarRef("N") + VarRef("j")
        out = substitute(e, {"i": VarRef("i") + IntConst(1)})
        assert str(out) == "(((i + 1) * N) + j)"

    def test_substitute_respects_loop_shadowing(self):
        inner = For("i", IntConst(0), IntConst(4),
                    (Assign("s", VarRef("i")),))
        out = substitute_stmt(inner, {"i": IntConst(99)})
        # the loop rebinds i, so its body must NOT be substituted
        assert isinstance(out.body[0].expr, VarRef)

    def test_substitute_store(self):
        s = Store("y", VarRef("i"), VarRef("i"))
        out = substitute_stmt(s, {"i": IntConst(3)})
        assert isinstance(out.index, IntConst) and out.index.value == 3


class TestKernelSpec:
    def test_duplicate_params_rejected(self):
        N = dsl.sparam("N")
        with pytest.raises(ValueError, match="duplicate"):
            dsl.kernel("k", [N, dsl.sparam("N")], [dsl.pfor(dsl.ivar("i"), N, [])])

    def test_two_parallel_loops_rejected(self):
        N = dsl.sparam("N")
        i, j = dsl.ivars("i", "j")
        with pytest.raises(ValueError, match="at most one parallel"):
            dsl.kernel("k", [N], [dsl.pfor(i, N, []), dsl.pfor(j, N, [])])

    def test_param_lookup(self):
        N = dsl.sparam("N")
        spec = dsl.kernel("k", [N], [dsl.pfor(dsl.ivar("i"), N, [])])
        assert spec.param("N").name == "N"
        with pytest.raises(KeyError):
            spec.param("Q")

    def test_str_rendering(self, matvec_spec):
        text = str(matvec_spec)
        assert "__global__ void mv" in text
        assert "parallel for" in text
