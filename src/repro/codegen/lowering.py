"""Lowering from the loop-nest AST to PTX-like IR.

Reproduces the structure of Orio's CUDA code generation: the ``parallel``
loop becomes a grid-stride loop over ``blockIdx.x * blockDim.x +
threadIdx.x``; sequential loops become compare-and-branch loops; small
``If`` bodies are if-converted to predicated instructions (as ptxas does),
large ones become real divergent branches.

The lowering simultaneously builds the :class:`~repro.codegen.regions.Region`
tree used for dynamic-count evaluation and tags every memory access with the
coalescing pattern inferred from the symbolic stride of its index expression
with respect to the parallel loop variable.

Instruction-selection details that matter to the instruction mix:

- ``a*b + c`` fuses to ``mad``/``fma``;
- multiplication by a power-of-two integer constant becomes ``shl``;
- ``exp``/``div``/``sqrt`` lower to short SFU sequences under
  ``-use_fast_math`` and to longer refinement sequences otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.codegen.ast_nodes import (
    ArrayParam,
    Assign,
    AtomicAdd,
    BinOp,
    BoolOp,
    Call,
    Cast,
    Cmp,
    Expr,
    FloatConst,
    For,
    If,
    IntConst,
    KernelSpec,
    Load,
    NotOp,
    Stmt,
    Store,
    Sync,
    UnaryOp,
    VarRef,
)
from repro.codegen.regions import MemAccess, Region, RegionKind
from repro.ptx.instruction import (
    Imm,
    Instruction,
    Label,
    LabelRef,
    MemRef,
    ParamRef,
    Reg,
    SReg,
)
from repro.ptx.isa import CmpOp, DType, MemSpace, Opcode, SRegKind
from repro.ptx.module import KernelIR, KernelParam

#: ln(2)^-1, used by exp() lowering.
_LOG2E = 1.4426950408889634

#: if-conversion threshold: bodies of at most this many instructions are
#: predicated rather than branched (mirrors ptxas behaviour).
PREDICATION_LIMIT = 8

_CMP_MAP = {
    "lt": CmpOp.LT, "le": CmpOp.LE, "gt": CmpOp.GT,
    "ge": CmpOp.GE, "eq": CmpOp.EQ, "ne": CmpOp.NE,
}


class LoweringError(ValueError):
    """Raised when a kernel spec cannot be lowered."""


@dataclass
class LoweredKernel:
    """Output of lowering, before register allocation."""

    ir: KernelIR
    root_region: Region
    parallel_extent: Expr | None
    """Total iterations of the parallel loop (None for single-thread code)."""


class _Ctx:
    """Mutable lowering state."""

    def __init__(self, spec: KernelSpec, fast_math: bool, address_64bit: bool):
        self.spec = spec
        self.fast_math = fast_math
        self.address_64bit = address_64bit
        self.body: list = []
        self.env: dict[str, Reg] = {}
        self.param_bases: dict[str, Reg] = {}
        self.smem_offsets: dict[str, tuple[int, DType]] = {}
        self._vreg = 0
        self._label = 0
        self._branch = 0
        self.region_stack: list[Region] = []
        self.pvar: str | None = None
        self.pred_stack: list[tuple[Reg, bool]] = []
        self.seq_stack: list[str] = []
        """Innermost-last stack of enclosing sequential loop variables."""
        self.defs: dict[str, Expr | None] = {}
        """Symbolic definitions of locals (fully substituted), used to see
        through assignments like ``i = n % N`` when classifying access
        patterns.  ``None`` marks self-referential / unknown values."""

    def resolve_index(self, index: Expr) -> Expr:
        """Substitute known local definitions into an index expression."""
        from repro.codegen.ast_nodes import substitute

        known = {k: v for k, v in self.defs.items() if v is not None}
        return substitute(index, known) if known else index

    # -- emission helpers ------------------------------------------------

    @property
    def region(self) -> Region:
        return self.region_stack[-1]

    def fresh(self, dtype: DType) -> Reg:
        self._vreg += 1
        return Reg(f"%v{self._vreg}", dtype)

    def label(self, hint: str) -> str:
        self._label += 1
        return f"$L_{hint}_{self._label}"

    def branch_id(self) -> str:
        """A fresh id for one branching ``If``'s THEN/ELSE regions,
        numbered per kernel so equal specs get equal ids.  It has its own
        counter because the label counter's numbers are in the code."""
        self._branch += 1
        return f"if{self._branch}"

    def emit(self, ins: Instruction, access: MemAccess | None = None) -> None:
        if self.pred_stack and ins.pred is None and not ins.is_terminator:
            pred, neg = self.pred_stack[-1]
            ins = ins.with_pred(pred, neg)
        self.body.append(ins)
        region = self.region_stack[-1]
        region.add_instruction(ins.category, ins.register_operand_count())
        if access is not None:
            region.mem_accesses.append(access)

    def emit_label(self, name: str) -> None:
        self.body.append(Label(name))

    # -- region management -------------------------------------------------

    def push_region(self, region: Region) -> None:
        self.region.children.append(region)
        self.region_stack.append(region)

    def pop_region(self) -> None:
        self.region_stack.pop()


# ----------------------------------------------------------------------
# stride analysis for coalescing patterns
# ----------------------------------------------------------------------


def index_stride(e: Expr, var: str):
    """Symbolic d(e)/d(var) for integer index expressions.

    Returns a (possibly fractional) coefficient when ``e`` is affine-ish in
    ``var``, or ``None`` when non-linear.  Division/modulo by constants are
    handled approximately: ``(a*var + b) // C`` has average stride ``a/C``
    (the value changes by ``a`` every ``C/a`` steps), and ``(...) % C``
    keeps its numerator's local stride.  This matches how these expressions
    appear in flattened multi-dimensional indexing (``n // N``, ``n % N``).
    """
    if isinstance(e, VarRef):
        return 1 if e.name == var else 0
    if isinstance(e, (IntConst, FloatConst)):
        return 0
    if isinstance(e, Cast):
        return index_stride(e.operand, var)
    if isinstance(e, BinOp):
        lv = index_stride(e.left, var)
        r = index_stride(e.right, var)
        if lv is None or r is None:
            return None
        if e.op == "+":
            return lv + r
        if e.op == "-":
            return lv - r
        if e.op == "*":
            if lv == 0 and isinstance(e.left, IntConst):
                return e.left.value * r
            if r == 0 and isinstance(e.right, IntConst):
                return lv * e.right.value
            if lv == 0 and r == 0:
                return 0
            return None
        if e.op in ("//", "/"):
            if r == 0 and isinstance(e.right, IntConst) and e.right.value:
                return lv / e.right.value
            if r == 0:
                # division by a lane-uniform parameter: the quotient changes
                # once every C lanes; domain sizes are >= warp-width in our
                # kernels, so treat it as effectively uniform
                return lv / 64.0 if lv is not None else None
            return 0 if (lv == 0 and r == 0) else None
        if e.op == "%":
            if r == 0:
                return lv  # locally contiguous, wraps every C elements
            return 0 if (lv == 0 and r == 0) else None
        if e.op in ("min", "max"):
            return 0 if (lv == 0 and r == 0) else None
    if isinstance(e, UnaryOp):
        s = index_stride(e.operand, var)
        if s is None:
            return None
        return -s if e.op == "-" else (0 if s == 0 else None)
    if isinstance(e, (Load, Call, Cmp, BoolOp, NotOp)):
        return None
    return None


def _pattern_from_stride(s) -> tuple[str, int]:
    if s is None:
        return "strided", 32
    if abs(s) < 0.5:
        # changes less than once per lane across a warp: effectively uniform
        return "uniform", 0
    if abs(s) < 1.5:
        return "coalesced", 1
    return "strided", int(round(abs(s)))


def classify_access(index: Expr, pvar: str | None,
                    seq_var: str | None = None) -> tuple[str, int, int]:
    """Infer (pattern, stride, seq_stride) of one access.

    The grid-stride mapping places consecutive parallel-loop iterations on
    consecutive threads, so a stride of 1 with respect to the parallel loop
    variable means adjacent lanes touch adjacent elements (coalesced).
    ``seq_stride`` is the per-iteration element stride of the innermost
    enclosing sequential loop (0 when there is none or the index does not
    depend on it).
    """
    if pvar is None:
        pattern, stride = "uniform", 0
    else:
        pattern, stride = _pattern_from_stride(index_stride(index, pvar))
    seq_stride = 0
    if seq_var is not None:
        ss = index_stride(index, seq_var)
        if ss is not None:
            seq_stride = int(round(ss)) if abs(ss) >= 0.5 else 0
        else:
            seq_stride = 32  # unknown: assume no line reuse
    return pattern, stride, seq_stride


# ----------------------------------------------------------------------
# expression lowering
# ----------------------------------------------------------------------


_ARITH_OPS = {"+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL,
              "min": Opcode.MIN, "max": Opcode.MAX}


def _is_pow2(v: int) -> bool:
    return v > 0 and (v & (v - 1)) == 0


def lower_expr(ctx: _Ctx, e: Expr, want: DType | None = None):
    """Lower ``e``; returns a Reg or Imm operand."""
    if isinstance(e, IntConst):
        return Imm(e.value, e.dtype)
    if isinstance(e, FloatConst):
        return Imm(e.value, e.dtype)
    if isinstance(e, VarRef):
        if e.name in ctx.env:
            return ctx.env[e.name]
        raise LoweringError(f"unbound variable {e.name!r}")
    if isinstance(e, Cast):
        src = lower_expr(ctx, e.operand)
        if isinstance(src, Imm):
            val = float(src.value) if e.to.is_float else int(src.value)
            return Imm(val, e.to)
        if src.dtype == e.to:
            return src
        dst = ctx.fresh(e.to)
        ctx.emit(Instruction(Opcode.CVT, dtype=e.to, dst=dst, srcs=(src,),
                             src_dtype=src.dtype))
        return dst
    if isinstance(e, BinOp):
        return _lower_binop(ctx, e)
    if isinstance(e, UnaryOp):
        src = lower_expr(ctx, e.operand)
        op = Opcode.ABS if e.op == "abs" else Opcode.NEG
        dst = ctx.fresh(e.dtype)
        ctx.emit(Instruction(op, dtype=e.dtype, dst=dst, srcs=(src,)))
        return dst
    if isinstance(e, Call):
        return _lower_call(ctx, e)
    if isinstance(e, Load):
        return _lower_load(ctx, e)
    if isinstance(e, Cmp):
        return _lower_cmp(ctx, e)
    if isinstance(e, BoolOp):
        lv = lower_expr(ctx, e.left)
        r = lower_expr(ctx, e.right)
        dst = ctx.fresh(DType.PRED)
        op = Opcode.AND if e.op == "and" else Opcode.OR
        ctx.emit(Instruction(op, dtype=DType.PRED, dst=dst, srcs=(lv, r)))
        return dst
    if isinstance(e, NotOp):
        src = lower_expr(ctx, e.operand)
        dst = ctx.fresh(DType.PRED)
        ctx.emit(Instruction(Opcode.NOT, dtype=DType.PRED, dst=dst, srcs=(src,)))
        return dst
    raise LoweringError(f"cannot lower expression {e!r}")


def _coerce(ctx: _Ctx, operand, dtype: DType):
    """Insert a conversion so ``operand`` has type ``dtype``."""
    cur = operand.dtype
    if cur == dtype:
        return operand
    if isinstance(operand, Imm):
        val = float(operand.value) if dtype.is_float else int(operand.value)
        return Imm(val, dtype)
    dst = ctx.fresh(dtype)
    ctx.emit(Instruction(Opcode.CVT, dtype=dtype, dst=dst, srcs=(operand,),
                         src_dtype=cur))
    return dst


def _lower_binop(ctx: _Ctx, e: BinOp):
    dtype = e.dtype

    # fuse a*b + c  /  c + a*b into mad/fma
    if e.op == "+":
        for mul_side, other_side in ((e.left, e.right), (e.right, e.left)):
            if isinstance(mul_side, BinOp) and mul_side.op == "*":
                a = _coerce(ctx, lower_expr(ctx, mul_side.left), dtype)
                b = _coerce(ctx, lower_expr(ctx, mul_side.right), dtype)
                c = _coerce(ctx, lower_expr(ctx, other_side), dtype)
                dst = ctx.fresh(dtype)
                op = Opcode.FMA if dtype.is_float else Opcode.MAD
                ctx.emit(Instruction(op, dtype=dtype, dst=dst, srcs=(a, b, c)))
                return dst

    # integer multiply by power of two -> shift
    if e.op == "*" and not dtype.is_float:
        for const_side, var_side in ((e.right, e.left), (e.left, e.right)):
            if isinstance(const_side, IntConst) and _is_pow2(const_side.value):
                src = _coerce(ctx, lower_expr(ctx, var_side), dtype)
                dst = ctx.fresh(dtype)
                sh = Imm(int(math.log2(const_side.value)), DType.S32)
                ctx.emit(Instruction(Opcode.SHL, dtype=dtype, dst=dst,
                                     srcs=(src, sh)))
                return dst

    if e.op == "/":
        return _lower_div(ctx, e)
    if e.op == "//":
        lv = _coerce(ctx, lower_expr(ctx, e.left), dtype)
        r = _coerce(ctx, lower_expr(ctx, e.right), dtype)
        dst = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.DIV, dtype=dtype, dst=dst, srcs=(lv, r)))
        return dst
    if e.op == "%":
        lv = _coerce(ctx, lower_expr(ctx, e.left), dtype)
        r = _coerce(ctx, lower_expr(ctx, e.right), dtype)
        q = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.DIV, dtype=dtype, dst=q, srcs=(lv, r)))
        t = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.MUL, dtype=dtype, dst=t, srcs=(q, r)))
        dst = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.SUB, dtype=dtype, dst=dst, srcs=(lv, t)))
        return dst

    op = _ARITH_OPS[e.op]
    lv = _coerce(ctx, lower_expr(ctx, e.left), dtype)
    r = _coerce(ctx, lower_expr(ctx, e.right), dtype)
    dst = ctx.fresh(dtype)
    ctx.emit(Instruction(op, dtype=dtype, dst=dst, srcs=(lv, r)))
    return dst


def _lower_div(ctx: _Ctx, e: BinOp):
    dtype = e.dtype
    lv = _coerce(ctx, lower_expr(ctx, e.left), dtype)
    r = _coerce(ctx, lower_expr(ctx, e.right), dtype)
    if not dtype.is_float:
        dst = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.DIV, dtype=dtype, dst=dst, srcs=(lv, r)))
        return dst
    if ctx.fast_math:
        # a/b -> a * rcp(b)
        rcp = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.RCP, dtype=dtype, dst=rcp, srcs=(r,)))
        dst = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.MUL, dtype=dtype, dst=dst, srcs=(lv, rcp)))
        return dst
    # precise: reciprocal + two Newton refinement steps + final fixup
    rcp = ctx.fresh(dtype)
    ctx.emit(Instruction(Opcode.RCP, dtype=dtype, dst=rcp, srcs=(r,)))
    one = Imm(1.0, dtype)
    err = ctx.fresh(dtype)
    neg = ctx.fresh(dtype)
    ctx.emit(Instruction(Opcode.NEG, dtype=dtype, dst=neg, srcs=(r,)))
    ctx.emit(Instruction(Opcode.FMA, dtype=dtype, dst=err, srcs=(neg, rcp, one)))
    rcp2 = ctx.fresh(dtype)
    ctx.emit(Instruction(Opcode.FMA, dtype=dtype, dst=rcp2, srcs=(rcp, err, rcp)))
    q = ctx.fresh(dtype)
    ctx.emit(Instruction(Opcode.MUL, dtype=dtype, dst=q, srcs=(lv, rcp2)))
    rem = ctx.fresh(dtype)
    negq = ctx.fresh(dtype)
    ctx.emit(Instruction(Opcode.NEG, dtype=dtype, dst=negq, srcs=(q,)))
    ctx.emit(Instruction(Opcode.FMA, dtype=dtype, dst=rem, srcs=(negq, r, lv)))
    dst = ctx.fresh(dtype)
    ctx.emit(Instruction(Opcode.FMA, dtype=dtype, dst=dst, srcs=(rem, rcp2, q)))
    return dst


def _lower_call(ctx: _Ctx, e: Call):
    dtype = e.dtype
    x = _coerce(ctx, lower_expr(ctx, e.args[0]), dtype)

    def sfu(op: Opcode, src) -> Reg:
        dst = ctx.fresh(dtype)
        ctx.emit(Instruction(op, dtype=dtype, dst=dst, srcs=(src,)))
        return dst

    if e.fn == "rcp":
        return sfu(Opcode.RCP, x)
    if e.fn == "rsqrt":
        return sfu(Opcode.RSQRT, x)
    if e.fn == "sin":
        return sfu(Opcode.SIN, x)
    if e.fn == "cos":
        return sfu(Opcode.COS, x)
    if e.fn == "sqrt":
        if ctx.fast_math:
            return sfu(Opcode.SQRT, x)
        r = sfu(Opcode.RSQRT, x)
        y = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.MUL, dtype=dtype, dst=y, srcs=(x, r)))
        # one Heron refinement: y' = 0.5*(y + x/y) via fma forms
        half = Imm(0.5, dtype)
        t = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.FMA, dtype=dtype, dst=t,
                             srcs=(y, half, Imm(0.0, dtype))))
        t2 = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.FMA, dtype=dtype, dst=t2,
                             srcs=(x, r, y)))
        out = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.MUL, dtype=dtype, dst=out, srcs=(t2, half)))
        return out
    if e.fn == "exp":
        scaled = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.MUL, dtype=dtype, dst=scaled,
                             srcs=(x, Imm(_LOG2E, dtype))))
        if ctx.fast_math:
            return sfu(Opcode.EX2, scaled)
        raw = sfu(Opcode.EX2, scaled)
        # polynomial correction (models the precise expf software sequence)
        c1 = Imm(1.0, dtype)
        c0 = Imm(0.0, dtype)
        t1 = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.FMA, dtype=dtype, dst=t1, srcs=(raw, c1, c0)))
        t2 = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.FMA, dtype=dtype, dst=t2, srcs=(t1, c1, c0)))
        out = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.FMA, dtype=dtype, dst=out, srcs=(t2, c1, c0)))
        return out
    if e.fn == "log":
        lg = sfu(Opcode.LG2, x)
        out = ctx.fresh(dtype)
        ln2 = Imm(1.0 / _LOG2E, dtype)
        ctx.emit(Instruction(Opcode.MUL, dtype=dtype, dst=out, srcs=(lg, ln2)))
        if ctx.fast_math:
            return out
        ref = ctx.fresh(dtype)
        ctx.emit(Instruction(Opcode.FMA, dtype=dtype, dst=ref,
                             srcs=(out, Imm(1.0, dtype), Imm(0.0, dtype))))
        return ref
    raise LoweringError(f"unknown intrinsic {e.fn}")


def _lower_cmp(ctx: _Ctx, e: Cmp):
    # operate in the joint type of the comparands
    lt, rt = e.left.dtype, e.right.dtype
    if lt.is_float or rt.is_float:
        work = DType.F64 if DType.F64 in (lt, rt) else DType.F32
    else:
        work = DType.S64 if DType.S64 in (lt, rt) else DType.S32
    lv = _coerce(ctx, lower_expr(ctx, e.left), work)
    r = _coerce(ctx, lower_expr(ctx, e.right), work)
    dst = ctx.fresh(DType.PRED)
    ctx.emit(Instruction(Opcode.SETP, dtype=work, dst=dst, srcs=(lv, r),
                         cmp=_CMP_MAP[e.op]))
    return dst


# -- memory ----------------------------------------------------------------


def _address(ctx: _Ctx, array: str, index: Expr, elem: DType) -> MemRef:
    """Compute the byte address of ``array[index]`` into a pointer register."""
    if array in ctx.smem_offsets:
        base_off, _ = ctx.smem_offsets[array]
        idx = _coerce(ctx, lower_expr(ctx, index), DType.S32)
        off = ctx.fresh(DType.S32)
        sh = Imm(int(math.log2(elem.nbytes)), DType.S32)
        ctx.emit(Instruction(Opcode.SHL, dtype=DType.S32, dst=off,
                             srcs=(idx, sh)))
        addr = ctx.fresh(DType.S32)
        ctx.emit(Instruction(Opcode.ADD, dtype=DType.S32, dst=addr,
                             srcs=(off, Imm(base_off, DType.S32))))
        return MemRef(MemSpace.SHARED, addr, 0)

    base = ctx.param_bases[array]
    idx = _coerce(ctx, lower_expr(ctx, index), DType.S32)
    if ctx.address_64bit:
        # nvcc idiom: one mul.wide.s32 produces the 64-bit byte offset
        off64 = ctx.fresh(DType.S64)
        ctx.emit(Instruction(Opcode.MULWIDE, dtype=DType.S64, dst=off64,
                             srcs=(idx, Imm(elem.nbytes, DType.S32)),
                             src_dtype=DType.S32))
        addr = ctx.fresh(DType.S64)
        ctx.emit(Instruction(Opcode.ADD, dtype=DType.S64, dst=addr,
                             srcs=(base, off64)))
    else:
        off32 = ctx.fresh(DType.S32)
        sh = Imm(int(math.log2(elem.nbytes)), DType.S32)
        ctx.emit(Instruction(Opcode.SHL, dtype=DType.S32, dst=off32,
                             srcs=(idx, sh)))
        addr = ctx.fresh(DType.S32)
        ctx.emit(Instruction(Opcode.ADD, dtype=DType.S32, dst=addr,
                             srcs=(base, off32)))
    return MemRef(MemSpace.GLOBAL, addr, 0)


def _lower_load(ctx: _Ctx, e: Load):
    mem = _address(ctx, e.array, e.index, e.elem_dtype)
    seq_var = ctx.seq_stack[-1] if ctx.seq_stack else None
    pattern, stride, seq_stride = classify_access(
        ctx.resolve_index(e.index), ctx.pvar, seq_var)
    dst = ctx.fresh(e.elem_dtype)
    ctx.emit(
        Instruction(Opcode.LD, dtype=e.elem_dtype, dst=dst, srcs=(mem,),
                    space=mem.space),
        access=MemAccess(mem.space, e.elem_dtype, pattern, stride, False,
                         seq_stride),
    )
    return dst


# ----------------------------------------------------------------------
# statement lowering
# ----------------------------------------------------------------------


def _lower_stmt(ctx: _Ctx, s: Stmt) -> None:
    if isinstance(s, Assign):
        # record the symbolic definition for access-pattern analysis
        from repro.codegen.ast_nodes import walk_exprs

        uses_self_or_unknown = any(
            isinstance(node, VarRef)
            and (node.name == s.var or ctx.defs.get(node.name, "") is None)
            for node in walk_exprs(s.expr)
        )
        has_load = any(isinstance(node, Load) for node in walk_exprs(s.expr))
        if uses_self_or_unknown or has_load:
            ctx.defs[s.var] = None
        else:
            ctx.defs[s.var] = ctx.resolve_index(s.expr)
        val = lower_expr(ctx, s.expr)
        dtype = val.dtype if not isinstance(val, Imm) else s.expr.dtype
        if s.var in ctx.env:
            home = ctx.env[s.var]
            if home.dtype != dtype:
                val = _coerce(ctx, val, home.dtype)
            ctx.emit(Instruction(Opcode.MOV, dtype=home.dtype, dst=home,
                                 srcs=(val,)))
        else:
            home = ctx.fresh(dtype)
            ctx.env[s.var] = home
            ctx.emit(Instruction(Opcode.MOV, dtype=dtype, dst=home, srcs=(val,)))
        return

    if isinstance(s, Store):
        elem = _store_dtype(ctx, s.array)
        val = _coerce(ctx, lower_expr(ctx, s.value), elem)
        mem = _address(ctx, s.array, s.index, elem)
        seq_var = ctx.seq_stack[-1] if ctx.seq_stack else None
        pattern, stride, seq_stride = classify_access(
            ctx.resolve_index(s.index), ctx.pvar, seq_var)
        ctx.emit(
            Instruction(Opcode.ST, dtype=elem, srcs=(mem, val),
                        space=mem.space),
            access=MemAccess(mem.space, elem, pattern, stride, True,
                             seq_stride),
        )
        return

    if isinstance(s, AtomicAdd):
        elem = _store_dtype(ctx, s.array)
        val = _coerce(ctx, lower_expr(ctx, s.value), elem)
        mem = _address(ctx, s.array, s.index, elem)
        seq_var = ctx.seq_stack[-1] if ctx.seq_stack else None
        pattern, stride, seq_stride = classify_access(
            ctx.resolve_index(s.index), ctx.pvar, seq_var)
        ctx.emit(
            Instruction(Opcode.RED, dtype=elem, srcs=(mem, val),
                        space=mem.space),
            access=MemAccess(mem.space, elem, pattern, stride, True,
                             seq_stride, is_atomic=True),
        )
        return

    if isinstance(s, For):
        _lower_for(ctx, s)
        return

    if isinstance(s, If):
        _lower_if(ctx, s)
        return

    if isinstance(s, Sync):
        ctx.emit(Instruction(Opcode.BAR))
        return

    raise LoweringError(f"cannot lower statement {s!r}")


def _store_dtype(ctx: _Ctx, array: str) -> DType:
    if array in ctx.smem_offsets:
        return ctx.smem_offsets[array][1]
    for p in ctx.spec.params:
        if isinstance(p, ArrayParam) and p.name == array:
            return p.elem_dtype
    raise LoweringError(f"store to unknown array {array!r}")


def _lower_for(ctx: _Ctx, s: For) -> None:
    if s.parallel:
        _lower_parallel_for(ctx, s)
    else:
        _lower_sequential_for(ctx, s)


def _lower_parallel_for(ctx: _Ctx, s: For) -> None:
    if ctx.pvar is not None:
        raise LoweringError("nested parallel loops are not supported")
    if ctx.pred_stack:
        raise LoweringError("parallel loop under predication is not supported")

    # preamble: global thread id and grid stride
    tid = ctx.fresh(DType.S32)
    ctx.emit(Instruction(Opcode.MOV, dtype=DType.S32, dst=tid,
                         srcs=(SReg(SRegKind.TID_X),)))
    ntid = ctx.fresh(DType.S32)
    ctx.emit(Instruction(Opcode.MOV, dtype=DType.S32, dst=ntid,
                         srcs=(SReg(SRegKind.NTID_X),)))
    ctaid = ctx.fresh(DType.S32)
    ctx.emit(Instruction(Opcode.MOV, dtype=DType.S32, dst=ctaid,
                         srcs=(SReg(SRegKind.CTAID_X),)))
    gtid = ctx.fresh(DType.S32)
    ctx.emit(Instruction(Opcode.MAD, dtype=DType.S32, dst=gtid,
                         srcs=(ctaid, ntid, tid)))
    nctaid = ctx.fresh(DType.S32)
    ctx.emit(Instruction(Opcode.MOV, dtype=DType.S32, dst=nctaid,
                         srcs=(SReg(SRegKind.NCTAID_X),)))
    stride = ctx.fresh(DType.S32)
    ctx.emit(Instruction(Opcode.MUL, dtype=DType.S32, dst=stride,
                         srcs=(ntid, nctaid)))

    upper = _coerce(ctx, lower_expr(ctx, s.upper), DType.S32)
    lower = lower_expr(ctx, s.lower)

    iv = ctx.fresh(DType.S32)
    ctx.env[s.var] = iv
    ctx.defs.pop(s.var, None)
    if isinstance(lower, Imm) and lower.value == 0:
        ctx.emit(Instruction(Opcode.MOV, dtype=DType.S32, dst=iv, srcs=(gtid,)))
    else:
        lo = _coerce(ctx, lower, DType.S32)
        ctx.emit(Instruction(Opcode.ADD, dtype=DType.S32, dst=iv,
                             srcs=(gtid, lo)))

    exit_lbl = ctx.label("pexit")
    loop_lbl = ctx.label("ploop")
    guard = ctx.fresh(DType.PRED)
    ctx.emit(Instruction(Opcode.SETP, dtype=DType.S32, dst=guard,
                         srcs=(iv, upper), cmp=CmpOp.GE))
    ctx.emit(Instruction(Opcode.BRA, srcs=(LabelRef(exit_lbl),),
                         pred=guard))
    ctx.emit_label(loop_lbl)

    region = Region(id=s.loop_id, kind=RegionKind.PLOOP, loop_var=s.var,
                    lower=s.lower, upper=s.upper, step=s.step)
    ctx.push_region(region)
    ctx.pvar = s.var
    for stmt in s.body:
        _lower_stmt(ctx, stmt)
    # latch
    ctx.emit(Instruction(Opcode.ADD, dtype=DType.S32, dst=iv,
                         srcs=(iv, stride)))
    back = ctx.fresh(DType.PRED)
    ctx.emit(Instruction(Opcode.SETP, dtype=DType.S32, dst=back,
                         srcs=(iv, upper), cmp=CmpOp.LT))
    ctx.emit(Instruction(Opcode.BRA, srcs=(LabelRef(loop_lbl),), pred=back))
    ctx.pvar = None
    ctx.pop_region()
    ctx.emit_label(exit_lbl)


def _lower_sequential_for(ctx: _Ctx, s: For) -> None:
    if ctx.pred_stack:
        raise LoweringError("loops under predication are not supported")
    upper = _coerce(ctx, lower_expr(ctx, s.upper), DType.S32)
    lower = _coerce(ctx, lower_expr(ctx, s.lower), DType.S32)

    iv = ctx.fresh(DType.S32)
    # a loop variable may shadow an earlier binding only if it is the same
    # loop var reused sequentially; we simply rebind.
    ctx.env[s.var] = iv
    ctx.defs.pop(s.var, None)
    ctx.emit(Instruction(Opcode.MOV, dtype=DType.S32, dst=iv, srcs=(lower,)))

    exit_lbl = ctx.label("sexit")
    loop_lbl = ctx.label("sloop")
    guard = ctx.fresh(DType.PRED)
    ctx.emit(Instruction(Opcode.SETP, dtype=DType.S32, dst=guard,
                         srcs=(iv, upper), cmp=CmpOp.GE))
    ctx.emit(Instruction(Opcode.BRA, srcs=(LabelRef(exit_lbl),), pred=guard))
    ctx.emit_label(loop_lbl)

    region = Region(id=s.loop_id, kind=RegionKind.SLOOP, loop_var=s.var,
                    lower=s.lower, upper=s.upper, step=s.step)
    ctx.push_region(region)
    ctx.seq_stack.append(s.var)
    for stmt in s.body:
        _lower_stmt(ctx, stmt)
    ctx.seq_stack.pop()
    ctx.emit(Instruction(Opcode.ADD, dtype=DType.S32, dst=iv,
                         srcs=(iv, Imm(s.step, DType.S32))))
    back = ctx.fresh(DType.PRED)
    ctx.emit(Instruction(Opcode.SETP, dtype=DType.S32, dst=back,
                         srcs=(iv, upper), cmp=CmpOp.LT))
    ctx.emit(Instruction(Opcode.BRA, srcs=(LabelRef(loop_lbl),), pred=back))
    ctx.pop_region()
    ctx.emit_label(exit_lbl)


def _stmt_weight(body) -> int:
    """Rough instruction-count estimate used by the if-conversion policy."""
    from repro.codegen.ast_nodes import walk_stmts, stmt_exprs, walk_exprs

    n = 0
    for st in walk_stmts(body):
        if isinstance(st, (For,)):
            return 10_000  # loops force a real branch
        for e in stmt_exprs(st):
            n += sum(1 for _ in walk_exprs(e))
        n += 2
    return n


def _lower_if(ctx: _Ctx, s: If) -> None:
    pred = lower_expr(ctx, s.cond)
    if not isinstance(pred, Reg) or pred.dtype is not DType.PRED:
        raise LoweringError("If condition must lower to a predicate")

    weight = _stmt_weight(s.then_body) + _stmt_weight(s.else_body)
    if weight <= PREDICATION_LIMIT and not ctx.pred_stack:
        # if-conversion: both arms predicated, no divergence possible
        ctx.pred_stack.append((pred, False))
        for stmt in s.then_body:
            _lower_stmt(ctx, stmt)
        ctx.pred_stack.pop()
        if s.else_body:
            ctx.pred_stack.append((pred, True))
            for stmt in s.else_body:
                _lower_stmt(ctx, stmt)
            ctx.pred_stack.pop()
        return

    end_lbl = ctx.label("endif")
    else_lbl = ctx.label("else") if s.else_body else end_lbl
    ctx.emit(Instruction(Opcode.BRA, srcs=(LabelRef(else_lbl),),
                         pred=pred, pred_negated=True))

    branch = ctx.branch_id()
    then_region = Region(id=f"{branch}t", kind=RegionKind.THEN,
                         cond=s.cond)
    ctx.push_region(then_region)
    for stmt in s.then_body:
        _lower_stmt(ctx, stmt)
    if s.else_body:
        ctx.emit(Instruction(Opcode.BRA, srcs=(LabelRef(end_lbl),)))
    ctx.pop_region()

    if s.else_body:
        ctx.emit_label(else_lbl)
        else_region = Region(id=f"{branch}e", kind=RegionKind.ELSE,
                             cond=s.cond)
        ctx.push_region(else_region)
        for stmt in s.else_body:
            _lower_stmt(ctx, stmt)
        ctx.pop_region()
    ctx.emit_label(end_lbl)


# ----------------------------------------------------------------------
# top level
# ----------------------------------------------------------------------


def lower_kernel(
    spec: KernelSpec,
    fast_math: bool = False,
    address_64bit: bool = True,
) -> LoweredKernel:
    """Lower a kernel spec to IR with virtual registers.

    The returned :class:`LoweredKernel` still uses virtual register names
    (``%vN``); :mod:`repro.codegen.regalloc` assigns physical registers and
    the per-thread register count.
    """
    ctx = _Ctx(spec, fast_math=fast_math, address_64bit=address_64bit)
    root = Region(id="root", kind=RegionKind.ROOT)
    ctx.region_stack.append(root)

    # shared-memory layout
    offset = 0
    for name, count, dtype in spec.smem_arrays:
        ctx.smem_offsets[name] = (offset, dtype)
        offset += count * dtype.nbytes
        offset = -(-offset // 8) * 8  # 8-byte align

    # parameter loads: pointers into %v registers, scalars likewise
    ptr_dtype = DType.S64 if address_64bit else DType.S32
    for p in spec.params:
        if isinstance(p, ArrayParam):
            base = ctx.fresh(ptr_dtype)
            ctx.emit(Instruction(Opcode.LD, dtype=ptr_dtype, dst=base,
                                 srcs=(ParamRef(p.name),),
                                 space=MemSpace.PARAM))
            ctx.param_bases[p.name] = base
        else:
            reg = ctx.fresh(p.dtype)
            ctx.emit(Instruction(Opcode.LD, dtype=p.dtype, dst=reg,
                                 srcs=(ParamRef(p.name),),
                                 space=MemSpace.PARAM))
            ctx.env[p.name] = reg

    for stmt in spec.body:
        _lower_stmt(ctx, stmt)
    ctx.emit(Instruction(Opcode.EXIT))

    params = tuple(
        KernelParam(p.name, p.elem_dtype if isinstance(p, ArrayParam)
                    else p.dtype, isinstance(p, ArrayParam))
        for p in spec.params
    )
    smem = sum(c * d.nbytes for _, c, d in spec.smem_arrays)
    ir = KernelIR(name=spec.name, params=params, body=ctx.body,
                  static_smem_bytes=smem)

    ploops = [s for s in spec.body if isinstance(s, For) and s.parallel]
    extent = None
    if ploops:
        extent = BinOp("-", ploops[0].upper, ploops[0].lower)
    return LoweredKernel(ir=ir, root_region=root, parallel_extent=extent)
