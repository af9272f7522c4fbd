"""Convenience constructors for writing kernel specifications.

The benchmark kernels in :mod:`repro.kernels` are written with these
helpers, which keep specs close to the annotated-C loop nests of the paper's
Fig. 3 workflow:

>>> from repro.codegen import dsl
>>> N = dsl.sparam("N")
>>> A, x, y = dsl.farrays("A", "x", "y")
>>> i, j = dsl.ivars("i", "j")
>>> s = dsl.var("s", "f32")
>>> spec = dsl.kernel(
...     "matvec",
...     params=[N, A, x, y],
...     body=[
...         dsl.pfor(i, N, [
...             dsl.assign("s", dsl.f32(0.0)),
...             dsl.sfor(j, N, [
...                 dsl.assign("s", s + A[i * N + j] * x[j]),
...             ]),
...             y.store(i, s),
...         ]),
...     ],
... )
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.ast_nodes import (
    ArrayParam,
    Assign,
    AtomicAdd,
    BoolOp,
    Call,
    Cast,
    Expr,
    FloatConst,
    For,
    If,
    IntConst,
    KernelSpec,
    Load,
    NotOp,
    ScalarParam,
    Store,
    Sync,
    VarRef,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)
from repro.ptx.isa import DType

_DTYPES = {d.value: d for d in DType}


def _dt(dtype) -> DType:
    if isinstance(dtype, DType):
        return dtype
    return _DTYPES[dtype]


# -- parameters ---------------------------------------------------------


@dataclass(frozen=True)
class ScalarHandle(VarRef):
    """A scalar parameter usable directly inside expression trees.

    Subclasses :class:`VarRef`, so lowering and evaluation treat it exactly
    like any variable reference while :func:`kernel` can recover its
    declaration.
    """

    def decl(self) -> ScalarParam:
        return ScalarParam(self.name, self.dtype)


def sparam(name: str, dtype="s32") -> ScalarHandle:
    """Declare a scalar kernel parameter (problem sizes, coefficients)."""
    return ScalarHandle(name, _dt(dtype))


@dataclass(frozen=True)
class ArrayHandle:
    """An array parameter with ``[]`` loads and ``.store()`` statements."""

    decl: ArrayParam

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def dtype(self) -> DType:
        return self.decl.elem_dtype

    def __getitem__(self, index) -> Load:
        return Load(self.decl.name, _as_expr(index), self.decl.elem_dtype)

    def store(self, index, value) -> Store:
        if isinstance(value, (int, float)):
            value = FloatConst(float(value), self.decl.elem_dtype)
        return Store(self.decl.name, _as_expr(index), _as_expr(value))

    def atomic_add(self, index, value) -> AtomicAdd:
        if isinstance(value, (int, float)):
            value = FloatConst(float(value), self.decl.elem_dtype)
        return AtomicAdd(self.decl.name, _as_expr(index), _as_expr(value))


def farray(name: str, dtype="f32") -> ArrayHandle:
    """Declare an array (pointer) kernel parameter."""
    return ArrayHandle(ArrayParam(name, _dt(dtype)))


def farrays(*names: str, dtype="f32") -> list[ArrayHandle]:
    return [farray(n, dtype) for n in names]


# -- variables & constants ---------------------------------------------


def ivar(name: str) -> VarRef:
    """A 32-bit integer variable reference (loop counters)."""
    return VarRef(name, DType.S32)


def ivars(*names: str) -> list[VarRef]:
    return [ivar(n) for n in names]


def var(name: str, dtype="f32") -> VarRef:
    return VarRef(name, _dt(dtype))


def i32(value: int) -> IntConst:
    return IntConst(int(value))


def f32(value: float) -> FloatConst:
    return FloatConst(float(value), DType.F32)


def f64(value: float) -> FloatConst:
    return FloatConst(float(value), DType.F64)


# -- statements ----------------------------------------------------------


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, bool):
        raise TypeError("bool constants are not kernel expressions")
    if isinstance(v, int):
        return IntConst(v)
    if isinstance(v, float):
        return FloatConst(v, DType.F32)
    raise TypeError(f"not an expression: {v!r}")


def assign(name: str, value) -> Assign:
    return Assign(name, _as_expr(value))


def pfor(v: VarRef, upper, body, lower=0) -> For:
    """The parallel (grid-mapped) loop: ``for v in [lower, upper)``."""
    return For(
        var=v.name,
        lower=_as_expr(lower),
        upper=_as_expr(upper),
        body=tuple(body),
        parallel=True,
    )


def sfor(v: VarRef, upper, body, lower=0) -> For:
    """A sequential per-thread loop."""
    return For(
        var=v.name,
        lower=_as_expr(lower),
        upper=_as_expr(upper),
        body=tuple(body),
        parallel=False,
    )


def pfor2d(vi: VarRef, vj: VarRef, ni, nj, body, flat: VarRef | None = None):
    """A parallel loop over a 2-D iteration domain ``[0,ni) x [0,nj)``.

    The grid mapping supports exactly one flat parallel loop, so the
    domain is linearized row-major: one parallel loop over ``ni*nj``
    whose body first de-flattens the row/column indices

    .. code-block:: c

        for (f = 0; f < ni*nj; f++) {   /* parallel */
          vi = f / nj;  vj = f % nj;
          ...body...
        }

    which keeps ``vj`` the fastest-moving index, so lanes of a warp touch
    consecutive columns (the coalescing-friendly orientation).  ``flat``
    names the linear counter (default ``"<vi><vj>_flat"``).

    Branch conditions inside ``body`` should be written over the flat
    counter (``f // nj``, ``f % nj``) rather than ``vi``/``vj``: the
    closed-form counting substrate evaluates conditions over loop
    variables and parameters, not locally-assigned names.  An index the
    body never reads gets no assignment (a kernel indexing by the flat
    counter alone pays nothing for the 2-D view).
    """
    f = flat if flat is not None else ivar(f"{vi.name}{vj.name}_flat")
    used = {
        node.name
        for s in walk_stmts(tuple(body))
        for e in stmt_exprs(s)
        for node in walk_exprs(e)
        if isinstance(node, VarRef)
    }
    prelude = []
    if vi.name in used:
        prelude.append(assign(vi.name, f // _as_expr(nj)))
    if vj.name in used:
        prelude.append(assign(vj.name, f % _as_expr(nj)))
    return pfor(f, _as_expr(ni) * _as_expr(nj), [*prelude, *body])


def when(cond, then_body, else_body=()) -> If:
    return If(cond=_as_expr(cond), then_body=tuple(then_body),
              else_body=tuple(else_body))


def both(l, r) -> BoolOp:
    """Logical AND of two predicates."""
    return BoolOp("and", _as_expr(l), _as_expr(r))


def either(l, r) -> BoolOp:
    """Logical OR of two predicates."""
    return BoolOp("or", _as_expr(l), _as_expr(r))


def negate(x) -> NotOp:
    """Logical NOT of a predicate."""
    return NotOp(_as_expr(x))


def sync() -> Sync:
    return Sync()


def exp(x) -> Call:
    return Call("exp", (_as_expr(x),))


def sqrt(x) -> Call:
    return Call("sqrt", (_as_expr(x),))


def log(x) -> Call:
    return Call("log", (_as_expr(x),))


def to_f32(x) -> Cast:
    return Cast(DType.F32, _as_expr(x))


def to_f64(x) -> Cast:
    return Cast(DType.F64, _as_expr(x))


def to_s32(x) -> Cast:
    return Cast(DType.S32, _as_expr(x))


def kernel(name: str, params, body, smem_arrays=()) -> KernelSpec:
    """Assemble a :class:`KernelSpec`, unwrapping DSL handles."""
    decls = []
    for p in params:
        if isinstance(p, ScalarHandle):
            decls.append(p.decl())
        elif isinstance(p, ArrayHandle):
            decls.append(p.decl)
        elif isinstance(p, (ScalarParam, ArrayParam)):
            decls.append(p)
        else:
            raise TypeError(f"not a parameter: {p!r}")
    return KernelSpec(name=name, params=tuple(decls), body=tuple(body),
                      smem_arrays=tuple(smem_arrays))
