"""Loop-nest AST: the kernel input language.

This is the Orio-style source form: a kernel is a list of statements over
scalar/array parameters, where the outermost ``For`` marked ``parallel=True``
is mapped to CUDA threads by the lowering (grid-stride), and inner ``For``
loops stay sequential per-thread (and are the targets of unrolling).

Design constraints (checked by :func:`KernelSpec.validate`):

- loop bounds and ``If`` conditions may reference parameters, constants and
  enclosing loop variables;
- loop variables are 32-bit integers with unit stride (``step`` may be set
  by transforms such as unrolling);
- arrays are 1-D buffers indexed by affine-ish integer expressions (use
  explicit flattening like ``i*N + j`` for matrices, as CUDA C does).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable

from repro.ptx.isa import DType

# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


class Expr:
    """Base class for expressions.  Operator overloads build trees."""

    dtype: DType

    def _wrap(self, other) -> "Expr":
        if isinstance(other, Expr):
            return other
        if isinstance(other, bool):
            raise TypeError("bool constants are not kernel expressions")
        if isinstance(other, int):
            return IntConst(other)
        if isinstance(other, float):
            ft = self.dtype if self.dtype.is_float else DType.F32
            return FloatConst(other, ft)
        raise TypeError(f"cannot coerce {other!r} to an expression")

    def __add__(self, other):
        return BinOp("+", self, self._wrap(other))

    def __radd__(self, other):
        return BinOp("+", self._wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, self._wrap(other))

    def __rsub__(self, other):
        return BinOp("-", self._wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, self._wrap(other))

    def __rmul__(self, other):
        return BinOp("*", self._wrap(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, self._wrap(other))

    def __rtruediv__(self, other):
        return BinOp("/", self._wrap(other), self)

    def __floordiv__(self, other):
        return BinOp("//", self, self._wrap(other))

    def __mod__(self, other):
        return BinOp("%", self, self._wrap(other))

    def __neg__(self):
        return UnaryOp("-", self)

    # comparisons build Cmp nodes (not booleans)
    def lt(self, other):
        return Cmp("lt", self, self._wrap(other))

    def le(self, other):
        return Cmp("le", self, self._wrap(other))

    def gt(self, other):
        return Cmp("gt", self, self._wrap(other))

    def ge(self, other):
        return Cmp("ge", self, self._wrap(other))

    def eq(self, other):
        return Cmp("eq", self, self._wrap(other))

    def ne(self, other):
        return Cmp("ne", self, self._wrap(other))


@dataclass(frozen=True)
class IntConst(Expr):
    value: int
    dtype: DType = DType.S32

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class FloatConst(Expr):
    value: float
    dtype: DType = DType.F32

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class VarRef(Expr):
    """Reference to a scalar parameter, a loop variable, or a local."""

    name: str
    dtype: DType = DType.S32

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / // % min max
    left: Expr
    right: Expr

    _VALID = frozenset({"+", "-", "*", "/", "//", "%", "min", "max"})

    def __post_init__(self):
        if self.op not in self._VALID:
            raise ValueError(f"unknown binary op {self.op!r}")

    @property
    def dtype(self) -> DType:
        lt, rt = self.left.dtype, self.right.dtype
        if lt.is_float or rt.is_float:
            return DType.F64 if DType.F64 in (lt, rt) else DType.F32
        return DType.S64 if DType.S64 in (lt, rt) else DType.S32

    def __str__(self):
        if self.op in ("min", "max"):
            return f"{self.op}({self.left}, {self.right})"
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # - abs
    operand: Expr

    @property
    def dtype(self) -> DType:
        return self.operand.dtype

    def __str__(self):
        if self.op == "abs":
            return f"abs({self.operand})"
        return f"(-{self.operand})"


@dataclass(frozen=True)
class Call(Expr):
    """Math intrinsic call: exp, sqrt, rsqrt, sin, cos, log, rcp."""

    fn: str
    args: tuple

    _VALID = frozenset({"exp", "sqrt", "rsqrt", "sin", "cos", "log", "rcp"})

    def __post_init__(self):
        if self.fn not in self._VALID:
            raise ValueError(f"unknown intrinsic {self.fn!r}")
        if len(self.args) != 1:
            raise ValueError(f"{self.fn} takes exactly one argument")

    @property
    def dtype(self) -> DType:
        t = self.args[0].dtype
        return t if t.is_float else DType.F32

    def __str__(self):
        return f"{self.fn}({self.args[0]})"


@dataclass(frozen=True)
class Cast(Expr):
    to: DType
    operand: Expr

    @property
    def dtype(self) -> DType:
        return self.to

    def __str__(self):
        return f"({self.to.value}){self.operand}"


@dataclass(frozen=True)
class Load(Expr):
    """Element load ``array[index]``."""

    array: str
    index: Expr
    elem_dtype: DType = DType.F32

    @property
    def dtype(self) -> DType:
        return self.elem_dtype

    def __str__(self):
        return f"{self.array}[{self.index}]"


@dataclass(frozen=True)
class Cmp(Expr):
    op: str  # lt le gt ge eq ne
    left: Expr
    right: Expr
    dtype: DType = DType.PRED

    def __str__(self):
        sym = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=",
               "eq": "==", "ne": "!="}[self.op]
        return f"({self.left} {sym} {self.right})"


@dataclass(frozen=True)
class BoolOp(Expr):
    op: str  # and / or
    left: Expr
    right: Expr
    dtype: DType = DType.PRED

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class NotOp(Expr):
    operand: Expr
    dtype: DType = DType.PRED

    def __str__(self):
        return f"(!{self.operand})"


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


class Stmt:
    """Base class for statements."""


@dataclass(frozen=True)
class Assign(Stmt):
    """``var = expr`` -- declares the local on first assignment."""

    var: str
    expr: Expr

    def __str__(self):
        return f"{self.var} = {self.expr};"


@dataclass(frozen=True)
class Store(Stmt):
    """``array[index] = value``."""

    array: str
    index: Expr
    value: Expr

    def __str__(self):
        return f"{self.array}[{self.index}] = {self.value};"


@dataclass(frozen=True)
class AtomicAdd(Stmt):
    """``atomicAdd(&array[index], value)`` -- lowered to ``red.global.add``."""

    array: str
    index: Expr
    value: Expr

    def __str__(self):
        return f"atomicAdd(&{self.array}[{self.index}], {self.value});"


_loop_ids = itertools.count(1)


@dataclass(frozen=True)
class For(Stmt):
    """``for (var = lower; var < upper; var += step) body``.

    ``parallel=True`` marks the loop the lowering maps onto the CUDA grid
    (grid-stride).  ``loop_id`` identifies the loop in the trip-count model;
    transforms preserve provenance by deriving ids.
    """

    var: str
    lower: Expr
    upper: Expr
    body: tuple
    step: int = 1
    parallel: bool = False
    loop_id: str = ""

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("loop step must be >= 1")
        if not self.loop_id:
            object.__setattr__(self, "loop_id", f"L{next(_loop_ids)}")
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))

    def __str__(self):
        tag = "parallel " if self.parallel else ""
        inner = "\n".join(f"  {line}" for s in self.body
                          for line in str(s).splitlines())
        hdr = (f"{tag}for ({self.var} = {self.lower}; {self.var} < "
               f"{self.upper}; {self.var} += {self.step})")
        return f"{hdr} {{\n{inner}\n}}"


@dataclass(frozen=True)
class If(Stmt):
    """``if (cond) then_body else else_body``.

    How often the condition holds is not declared: exact counting
    evaluates it over the enclosing loop domain, and the static analyzer
    assumes 0.5 (one source of the Table VI static-estimation error).
    """

    cond: Expr
    then_body: tuple
    else_body: tuple = ()

    def __post_init__(self):
        if not isinstance(self.then_body, tuple):
            object.__setattr__(self, "then_body", tuple(self.then_body))
        if not isinstance(self.else_body, tuple):
            object.__setattr__(self, "else_body", tuple(self.else_body))

    def __str__(self):
        t = "\n".join(f"  {line}" for s in self.then_body
                      for line in str(s).splitlines())
        out = f"if {self.cond} {{\n{t}\n}}"
        if self.else_body:
            e = "\n".join(f"  {line}" for s in self.else_body
                          for line in str(s).splitlines())
            out += f" else {{\n{e}\n}}"
        return out


@dataclass(frozen=True)
class Sync(Stmt):
    """``__syncthreads()``."""

    def __str__(self):
        return "__syncthreads();"


# ----------------------------------------------------------------------
# Kernel specification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarParam:
    name: str
    dtype: DType = DType.S32


@dataclass(frozen=True)
class ArrayParam:
    name: str
    elem_dtype: DType = DType.F32


@dataclass(frozen=True)
class KernelSpec:
    """A kernel source: parameters plus a statement list.

    ``smem_arrays`` maps ``__shared__`` array names to element counts (their
    dtype matches the producing stores); kernels without tiling leave it
    empty.
    """

    name: str
    params: tuple
    body: tuple
    smem_arrays: tuple = ()  # (name, elem_count, dtype) triples

    def __post_init__(self):
        if not isinstance(self.params, tuple):
            object.__setattr__(self, "params", tuple(self.params))
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))
        if not isinstance(self.smem_arrays, tuple):
            object.__setattr__(self, "smem_arrays", tuple(self.smem_arrays))
        self.validate()

    def scalar_params(self) -> list[ScalarParam]:
        return [p for p in self.params if isinstance(p, ScalarParam)]

    def array_params(self) -> list[ArrayParam]:
        return [p for p in self.params if isinstance(p, ArrayParam)]

    def param(self, name: str):
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"kernel {self.name}: no parameter {name!r}")

    def parallel_loops(self) -> list[For]:
        return [s for s in walk_stmts(self.body) if isinstance(s, For) and s.parallel]

    def validate(self) -> None:
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"kernel {self.name}: duplicate parameter names")
        ploops = self.parallel_loops()
        if len(ploops) > 1:
            raise ValueError(
                f"kernel {self.name}: at most one parallel loop is supported"
            )
        # parallel loop must be top-level
        if ploops and not any(
            isinstance(s, For) and s.parallel for s in self.body
        ):
            raise ValueError(
                f"kernel {self.name}: the parallel loop must be top-level"
            )

    def __str__(self):
        params = ", ".join(
            f"{p.elem_dtype.value}* {p.name}" if isinstance(p, ArrayParam)
            else f"{p.dtype.value} {p.name}"
            for p in self.params
        )
        body = "\n".join(f"  {line}" for s in self.body
                         for line in str(s).splitlines())
        return f"__global__ void {self.name}({params}) {{\n{body}\n}}"


# ----------------------------------------------------------------------
# Traversal and evaluation helpers
# ----------------------------------------------------------------------


def walk_stmts(body: Iterable[Stmt]):
    """Yield every statement in ``body``, depth-first."""
    for s in body:
        yield s
        if isinstance(s, For):
            yield from walk_stmts(s.body)
        elif isinstance(s, If):
            yield from walk_stmts(s.then_body)
            yield from walk_stmts(s.else_body)


def walk_exprs(e: Expr):
    """Yield every node of an expression tree, depth-first."""
    yield e
    if isinstance(e, (BinOp, Cmp, BoolOp)):
        yield from walk_exprs(e.left)
        yield from walk_exprs(e.right)
    elif isinstance(e, (UnaryOp, NotOp)):
        yield from walk_exprs(e.operand)
    elif isinstance(e, Cast):
        yield from walk_exprs(e.operand)
    elif isinstance(e, Call):
        for a in e.args:
            yield from walk_exprs(a)
    elif isinstance(e, Load):
        yield from walk_exprs(e.index)


def stmt_exprs(s: Stmt):
    """The expressions directly contained in one statement."""
    if isinstance(s, Assign):
        return [s.expr]
    if isinstance(s, (Store, AtomicAdd)):
        return [s.index, s.value]
    if isinstance(s, For):
        return [s.lower, s.upper]
    if isinstance(s, If):
        return [s.cond]
    return []


def substitute(e: Expr, env: dict[str, Expr]) -> Expr:
    """Replace ``VarRef`` nodes named in ``env``; used by loop unrolling."""
    if isinstance(e, VarRef) and e.name in env:
        return env[e.name]
    if isinstance(e, (BinOp, Cmp, BoolOp)):
        return replace(e, left=substitute(e.left, env),
                       right=substitute(e.right, env))
    if isinstance(e, (UnaryOp, NotOp)):
        return replace(e, operand=substitute(e.operand, env))
    if isinstance(e, Cast):
        return replace(e, operand=substitute(e.operand, env))
    if isinstance(e, Call):
        return replace(e, args=tuple(substitute(a, env) for a in e.args))
    if isinstance(e, Load):
        return replace(e, index=substitute(e.index, env))
    return e


def substitute_stmt(s: Stmt, env: dict[str, Expr]) -> Stmt:
    if isinstance(s, Assign):
        return replace(s, expr=substitute(s.expr, env))
    if isinstance(s, (Store, AtomicAdd)):
        return replace(s, index=substitute(s.index, env),
                       value=substitute(s.value, env))
    if isinstance(s, For):
        inner_env = {k: v for k, v in env.items() if k != s.var}
        return For(
            var=s.var,
            lower=substitute(s.lower, inner_env),
            upper=substitute(s.upper, inner_env),
            body=tuple(substitute_stmt(b, inner_env) for b in s.body),
            step=s.step,
            parallel=s.parallel,
            loop_id=f"{s.loop_id}'",
        )
    if isinstance(s, If):
        return If(
            cond=substitute(s.cond, env),
            then_body=tuple(substitute_stmt(b, env) for b in s.then_body),
            else_body=tuple(substitute_stmt(b, env) for b in s.else_body),
        )
    return s


def evaluate_expr(e: Expr, env: dict[str, float]) -> float:
    """Numerically evaluate an expression over scalar bindings.

    Used for trip-count formulas (loop bounds over parameters) -- not a
    kernel interpreter.  Integer ops follow C semantics (truncating ``/``
    on ints).
    """
    import math

    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, FloatConst):
        return e.value
    if isinstance(e, VarRef):
        if e.name not in env:
            raise KeyError(f"unbound variable {e.name!r} in expression")
        return env[e.name]
    if isinstance(e, BinOp):
        lv = evaluate_expr(e.left, env)
        r = evaluate_expr(e.right, env)
        if e.op == "+":
            return lv + r
        if e.op == "-":
            return lv - r
        if e.op == "*":
            return lv * r
        if e.op == "/":
            if e.dtype.is_float:
                return lv / r
            return int(lv / r) if r != 0 else 0
        if e.op == "//":
            return int(lv) // int(r)
        if e.op == "%":
            return int(lv) % int(r)
        if e.op == "min":
            return min(lv, r)
        if e.op == "max":
            return max(lv, r)
    if isinstance(e, UnaryOp):
        v = evaluate_expr(e.operand, env)
        return abs(v) if e.op == "abs" else -v
    if isinstance(e, Cast):
        v = evaluate_expr(e.operand, env)
        return float(v) if e.to.is_float else int(v)
    if isinstance(e, Cmp):
        lv = evaluate_expr(e.left, env)
        r = evaluate_expr(e.right, env)
        return {
            "lt": lv < r, "le": lv <= r, "gt": lv > r,
            "ge": lv >= r, "eq": lv == r, "ne": lv != r,
        }[e.op]
    if isinstance(e, BoolOp):
        lv = evaluate_expr(e.left, env)
        r = evaluate_expr(e.right, env)
        return (lv and r) if e.op == "and" else (lv or r)
    if isinstance(e, NotOp):
        return not evaluate_expr(e.operand, env)
    if isinstance(e, Call):
        v = evaluate_expr(e.args[0], env)
        return {
            "exp": math.exp, "sqrt": math.sqrt, "sin": math.sin,
            "cos": math.cos, "log": math.log,
            "rsqrt": lambda x: 1.0 / math.sqrt(x),
            "rcp": lambda x: 1.0 / x,
        }[e.fn](v)
    if isinstance(e, Load):
        # input-aware evaluation: the caller may bind whole input arrays
        # in ``env`` (the counting model does, for data-dependent bounds
        # like CSR row extents); absent arrays raise like unbound scalars
        if e.array not in env:
            raise KeyError(f"unbound array {e.array!r} in expression")
        v = env[e.array][int(evaluate_expr(e.index, env))]
        return float(v) if e.dtype.is_float else int(v)
    raise TypeError(f"cannot evaluate {type(e).__name__} numerically")


def evaluate_expr_numpy(e: Expr, env: dict):
    """Vectorized evaluation over NumPy-array variable bindings.

    Used by the exact dynamic-count substrate to evaluate branch conditions
    over whole iteration domains at once (e.g. the boundary predicate of the
    ex14FJ stencil over all N^3 points).  Integer division/modulo follow C
    semantics for non-negative operands, which is all our index expressions
    use.
    """
    import numpy as np

    if isinstance(e, IntConst):
        return np.int64(e.value)
    if isinstance(e, FloatConst):
        return np.float64(e.value)
    if isinstance(e, VarRef):
        if e.name not in env:
            raise KeyError(f"unbound variable {e.name!r} in expression")
        return env[e.name]
    if isinstance(e, BinOp):
        lv = evaluate_expr_numpy(e.left, env)
        r = evaluate_expr_numpy(e.right, env)
        if e.op == "+":
            return lv + r
        if e.op == "-":
            return lv - r
        if e.op == "*":
            return lv * r
        if e.op == "/":
            if e.dtype.is_float:
                return lv / r
            return np.asarray(lv) // np.asarray(r)
        if e.op == "//":
            return np.asarray(lv) // np.asarray(r)
        if e.op == "%":
            return np.asarray(lv) % np.asarray(r)
        if e.op == "min":
            return np.minimum(lv, r)
        if e.op == "max":
            return np.maximum(lv, r)
    if isinstance(e, UnaryOp):
        v = evaluate_expr_numpy(e.operand, env)
        return np.abs(v) if e.op == "abs" else -v
    if isinstance(e, Cast):
        v = evaluate_expr_numpy(e.operand, env)
        return v.astype(float) if e.to.is_float else np.asarray(v).astype(np.int64)
    if isinstance(e, Cmp):
        lv = evaluate_expr_numpy(e.left, env)
        r = evaluate_expr_numpy(e.right, env)
        return {
            "lt": lv < r, "le": lv <= r, "gt": lv > r,
            "ge": lv >= r, "eq": lv == r, "ne": lv != r,
        }[e.op]
    if isinstance(e, BoolOp):
        lv = evaluate_expr_numpy(e.left, env)
        r = evaluate_expr_numpy(e.right, env)
        return (lv & r) if e.op == "and" else (lv | r)
    if isinstance(e, NotOp):
        return ~evaluate_expr_numpy(e.operand, env)
    if isinstance(e, Call):
        import numpy as np

        v = evaluate_expr_numpy(e.args[0], env)
        return {
            "exp": np.exp, "sqrt": np.sqrt, "sin": np.sin,
            "cos": np.cos, "log": np.log,
            "rsqrt": lambda x: 1.0 / np.sqrt(x),
            "rcp": lambda x: 1.0 / x,
        }[e.fn](v)
    if isinstance(e, Load):
        # vectorized gather from a bound input array (data-dependent
        # branch conditions / loop bounds over concrete inputs)
        if e.array not in env:
            raise KeyError(f"unbound array {e.array!r} in expression")
        arr = np.asarray(env[e.array])
        idx = np.asarray(evaluate_expr_numpy(e.index, env)).astype(np.int64)
        return arr[idx]
    raise TypeError(f"cannot evaluate {type(e).__name__} with numpy")
