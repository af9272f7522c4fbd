"""Forward value analysis: affine forms, intervals, uniformity.

This is the symbolic core the checkers build on.  Per program point and
register it tracks an :class:`AbsVal` with three cooperating facets:

- an *affine form* over launch symbols (``tid``, ``ctaid``, loop
  ``phi`` variables, pointer bases) -- exact linear expressions like
  ``4*tid + 512`` survive the codegen's div/mul/sub modulo idiom and
  register reuse;
- a *numeric interval*, refined along branch edges (the taken edge of
  ``setp.lt %p, %r, N; @%p bra L`` knows ``%r < N``), which is what the
  out-of-bounds checker consumes;
- a *uniformity bit*: whether all active threads of a block hold the
  same value (the divergent-barrier test).  Grid-stride guards like
  ``gtid + k*stride < N`` are proven block-uniform by the *window
  lemma*: if the condition is ``tid + R < 0`` with ``R`` congruent to
  ``0 mod ntid`` in every component, the crossing aligns with block
  boundaries, so a whole block agrees.

Loop-carried registers get ``phi`` symbols introduced at natural-loop
headers when the latch increment is a compile-time constant; the
symbol records the gcd of observed increments (``multiple_of``), which
both the window lemma and the modulo normalizer need.  Everything else
(data-dependent loads, non-affine arithmetic) degrades gracefully to
interval/uniformity facts only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from repro.ptx.cfg import CFG
from repro.ptx.instruction import Imm, MemRef, ParamRef, Reg, SReg
from repro.ptx.isa import CmpOp, DType, MemSpace, Opcode, SRegKind
from repro.ptx.module import KernelIR

# -- intervals --------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Integer interval; ``None`` bounds are unbounded."""

    lo: int | None = None
    hi: int | None = None

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def contains(self, other: "Interval") -> bool:
        if other.is_empty:
            return True
        lo_ok = self.lo is None or (
            other.lo is not None and other.lo >= self.lo
        )
        hi_ok = self.hi is None or (
            other.hi is not None and other.hi <= self.hi
        )
        return lo_ok and hi_ok


TOP_IVL = Interval()
EMPTY_IVL = Interval(0, -1)


def _add(a: int | None, b: int | None) -> int | None:
    return None if a is None or b is None else a + b


def ivl_add(a: Interval, b: Interval) -> Interval:
    return Interval(_add(a.lo, b.lo), _add(a.hi, b.hi))


def ivl_neg(a: Interval) -> Interval:
    return Interval(
        None if a.hi is None else -a.hi, None if a.lo is None else -a.lo
    )


def ivl_sub(a: Interval, b: Interval) -> Interval:
    return ivl_add(a, ivl_neg(b))


def ivl_scale(a: Interval, k: int) -> Interval:
    if k == 0:
        return Interval(0, 0)
    lo = None if a.lo is None else a.lo * k
    hi = None if a.hi is None else a.hi * k
    return Interval(lo, hi) if k > 0 else Interval(hi, lo)


def ivl_mul(a: Interval, b: Interval) -> Interval:
    if None in (a.lo, a.hi, b.lo, b.hi):
        return TOP_IVL
    prods = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    return Interval(min(prods), max(prods))


def ivl_join(a: Interval, b: Interval) -> Interval:
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
    hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
    return Interval(lo, hi)


def ivl_meet(a: Interval, b: Interval) -> Interval:
    lo = b.lo if a.lo is None else (a.lo if b.lo is None else max(a.lo, b.lo))
    hi = b.hi if a.hi is None else (a.hi if b.hi is None else min(a.hi, b.hi))
    return Interval(lo, hi)


# -- affine forms -----------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """``sum(coeffs[s] * s) + const`` over analysis symbols."""

    coeffs: tuple[tuple[str, int], ...]
    const: int = 0

    @staticmethod
    def make(coeffs: dict[str, int], const: int) -> "Affine":
        items = tuple(sorted((s, c) for s, c in coeffs.items() if c))
        return Affine(items, const)

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def coeff(self, sym: str) -> int:
        return dict(self.coeffs).get(sym, 0)


def aff_const(v: int) -> Affine:
    return Affine((), v)


def aff_sym(sym: str) -> Affine:
    return Affine(((sym, 1),), 0)


def aff_add(a: Affine | None, b: Affine | None) -> Affine | None:
    if a is None or b is None:
        return None
    coeffs = dict(a.coeffs)
    for s, c in b.coeffs:
        coeffs[s] = coeffs.get(s, 0) + c
    return Affine.make(coeffs, a.const + b.const)


def aff_scale(a: Affine | None, k: int) -> Affine | None:
    if a is None:
        return None
    return Affine.make({s: c * k for s, c in a.coeffs}, a.const * k)


def aff_sub(a: Affine | None, b: Affine | None) -> Affine | None:
    return aff_add(a, aff_scale(b, -1))


# -- symbols and abstract values --------------------------------------


@dataclass
class SymInfo:
    """Range / uniformity / stride facts about one analysis symbol."""

    interval: Interval
    uniform: bool
    multiple_of: int = 1
    header: str | None = None  # set for loop phi symbols


@dataclass(frozen=True)
class PCmp:
    """An elementary predicate: ``lhs cmp rhs`` over snapshot values."""

    lhs: "AbsVal"
    rhs: "AbsVal"
    cmp: CmpOp


@dataclass(frozen=True)
class PNot:
    a: object


@dataclass(frozen=True)
class PAnd:
    a: object
    b: object


@dataclass(frozen=True)
class POr:
    a: object
    b: object


_NEG_CMP = {
    CmpOp.LT: CmpOp.GE, CmpOp.GE: CmpOp.LT,
    CmpOp.LE: CmpOp.GT, CmpOp.GT: CmpOp.LE,
    CmpOp.EQ: CmpOp.NE, CmpOp.NE: CmpOp.EQ,
}


def flatten_pred(pv, negated: bool) -> list[PCmp]:
    """The conjunction of elementary comparisons implied by a predicate
    tree being ``True`` (or ``False`` when ``negated``).  Disjunctive
    directions contribute nothing (empty list)."""
    if isinstance(pv, PCmp):
        if negated:
            return [PCmp(pv.lhs, pv.rhs, _NEG_CMP[pv.cmp])]
        return [pv]
    if isinstance(pv, PNot):
        return flatten_pred(pv.a, not negated)
    if isinstance(pv, PAnd):
        if negated:
            return []
        return flatten_pred(pv.a, False) + flatten_pred(pv.b, False)
    if isinstance(pv, POr):
        if not negated:
            return []
        return flatten_pred(pv.a, True) + flatten_pred(pv.b, True)
    return []


@dataclass(frozen=True)
class AbsVal:
    """Abstract value of one register at one point."""

    affine: Affine | None = None
    interval: Interval = TOP_IVL
    uniform: bool = False
    origin: tuple | None = None
    pred: object | None = None  # predicate tree for DType.PRED regs


TOP = AbsVal()


def av_const(v: int) -> AbsVal:
    return AbsVal(aff_const(v), Interval(v, v), True)


def av_join(a: AbsVal, b: AbsVal) -> AbsVal:
    return AbsVal(
        affine=a.affine if a.affine == b.affine else None,
        interval=ivl_join(a.interval, b.interval),
        uniform=a.uniform and b.uniform,
        origin=a.origin if a.origin == b.origin else None,
        pred=a.pred if a.pred == b.pred else None,
    )


# -- launch context ---------------------------------------------------


@dataclass
class LaunchContext:
    """Concrete launch facts the analysis is allowed to assume: thread/
    block counts, scalar parameter values, and array extents in bytes.
    Verdicts are relative to this context (the lint entry points build
    it from a benchmark's smallest registered size and its
    emulation-safe launch)."""

    tc: int
    bc: int
    params: dict[str, int | float] = field(default_factory=dict)
    extents: dict[str, int] = field(default_factory=dict)


# -- the analysis -----------------------------------------------------

_CMP_BOUND = {
    CmpOp.LT: Interval(None, -1),
    CmpOp.LE: Interval(None, 0),
    CmpOp.GT: Interval(1, None),
    CmpOp.GE: Interval(0, None),
    CmpOp.EQ: Interval(0, 0),
}

_WIDEN_VISITS = 3


class ValueAnalysis:
    """Flow-sensitive fixpoint over one kernel's CFG.

    After :meth:`run`, ``block_in[b]`` maps register name -> AbsVal at
    the entry of every reachable block (``None`` for unreachable
    blocks), with branch-edge refinements already folded in.  Checkers
    replay a block's instructions via :meth:`walk` to get the state at
    each instruction.
    """

    def __init__(self, cfg: CFG, kernel: KernelIR, ctx: LaunchContext):
        self.cfg = cfg
        self.kernel = kernel
        self.ctx = ctx
        self.syms: dict[str, SymInfo] = {
            "tid": SymInfo(Interval(0, ctx.tc - 1), uniform=False),
            "ctaid": SymInfo(Interval(0, ctx.bc - 1), uniform=True),
            "laneid": SymInfo(
                Interval(0, min(ctx.tc, 32) - 1), uniform=False
            ),
        }
        self.block_in: dict[str, dict[str, AbsVal] | None] = {}
        self._visits: dict[str, int] = {}
        self._header_latches: dict[str, set[str]] = {}
        for loop in cfg.natural_loops():
            self._header_latches.setdefault(loop.header, set()).update(
                p for p in cfg.predecessors(loop.header) if p in loop.body
            )

    # -- public API ---------------------------------------------------

    def run(self) -> "ValueAnalysis":
        cfg = self.cfg
        order = {n: i for i, n in enumerate(cfg.reverse_postorder())}
        block_out: dict[str, dict[str, AbsVal]] = {}
        work = [cfg.entry_block]
        queued = {cfg.entry_block}
        while work:
            work.sort(key=lambda n: order.get(n, 0), reverse=True)
            name = work.pop()
            queued.discard(name)
            states = []  # (predecessor, refined out-state) pairs
            if name == cfg.entry_block:
                states.append((None, {}))
            for p in cfg.predecessors(name):
                if p not in block_out:
                    continue
                refined = self._refine_edge(block_out[p], p, name)
                if refined is not None:
                    states.append((p, refined))
            if not states:
                continue
            self._visits[name] = self._visits.get(name, 0) + 1
            joined = self._join(name, states)
            prev = self.block_in.get(name)
            if prev is not None and self._visits[name] > _WIDEN_VISITS:
                joined = self._widen(prev, joined)
            if prev == joined and name in block_out:
                continue
            self.block_in[name] = joined
            out = dict(joined)
            for ins in cfg.blocks[name].instructions:
                self.transfer(ins, out)
            if block_out.get(name) != out:
                block_out[name] = out
                for s in cfg.successors(name):
                    if s not in queued:
                        work.append(s)
                        queued.add(s)
        self._narrow(block_out)
        for name in cfg.blocks:
            self.block_in.setdefault(name, None)
        return self

    def _narrow(self, block_out) -> None:
        """Two widening-free RPO sweeps from the converged post-
        fixpoint.  Widening at loop headers discards interval bounds
        that the branch-edge refinements re-establish on every visit
        (a grid-stride index is widened to ``[0, +inf)`` even though
        both incoming edges clip it below N); recomputing without
        widening recovers them, and starting from a post-fixpoint
        keeps every state sound."""
        cfg = self.cfg
        order = [n for n in cfg.reverse_postorder() if n in self.block_in]
        for _sweep in range(2):
            for name in order:
                states = []
                if name == cfg.entry_block:
                    states.append((None, {}))
                for p in cfg.predecessors(name):
                    if block_out.get(p) is None:
                        continue
                    refined = self._refine_edge(block_out[p], p, name)
                    if refined is not None:
                        states.append((p, refined))
                if not states:
                    self.block_in[name] = None
                    block_out[name] = None
                    continue
                joined = self._join(name, states)
                self.block_in[name] = joined
                out = dict(joined)
                for ins in cfg.blocks[name].instructions:
                    self.transfer(ins, out)
                block_out[name] = out

    def walk(self, name: str):
        """Yield ``(offset, ins, state_before)`` for a reachable block.
        The state dict is reused across yields; read it immediately."""
        state = dict(self.block_in[name] or {})
        for off, ins in enumerate(self.cfg.blocks[name].instructions):
            yield off, ins, state
            self.transfer(ins, state)

    def reachable(self, name: str) -> bool:
        return self.block_in.get(name) is not None

    def branch_uniform(self, name: str) -> bool:
        """Whether the conditional branch terminating ``name`` is proven
        block-uniform."""
        blk = self.cfg.blocks[name]
        term = blk.terminator
        if term is None or not term.is_conditional_branch:
            return True
        for _off, ins, state in self.walk(name):
            if ins is term:
                return self.av_of(term.pred, state).uniform
        return False

    def av_of(self, op, state: dict[str, AbsVal]) -> AbsVal:
        if isinstance(op, Reg):
            return state.get(op.name, TOP)
        if isinstance(op, Imm):
            if op.dtype.is_float:
                return AbsVal(uniform=True)
            return av_const(int(op.value))
        if isinstance(op, SReg):
            return self._sreg(op.kind)
        if isinstance(op, MemRef):
            base = state.get(op.base.name, TOP)
            return AbsVal(
                affine=aff_add(base.affine, aff_const(op.offset)),
                interval=ivl_add(base.interval, Interval(op.offset, op.offset)),
                uniform=base.uniform,
            )
        return TOP

    def affine_uniform(self, aff: Affine | None) -> bool:
        if aff is None:
            return False
        return all(self.syms[s].uniform for s, _c in aff.coeffs)

    def affine_interval(self, aff: Affine) -> Interval:
        out = Interval(aff.const, aff.const)
        for s, c in aff.coeffs:
            out = ivl_add(out, ivl_scale(self.syms[s].interval, c))
        return out

    # -- joins, phis, widening ----------------------------------------

    def _join(self, name, states):
        """Join incoming ``(pred, state)`` pairs at ``name``.  At a
        loop header the back-edge states are folded against the
        current header state to introduce/advance phi symbols."""
        latches = self._header_latches.get(name, set())
        if not latches:
            return self._plain_join([s for _p, s in states])
        entry, latch = [], []
        for p, s in states:
            (latch if p in latches else entry).append(s)
        if not entry:
            return self._plain_join([s for _p, s in states])
        e = self._plain_join(entry)
        if not latch:
            return e
        lt = self._plain_join(latch)
        prev = self.block_in.get(name) or e
        out = {}
        for reg in set(e) | set(lt):
            ev, lv = e.get(reg, TOP), lt.get(reg, TOP)
            pv = prev.get(reg, ev)
            out[reg] = self._phi_join(name, reg, ev, lv, pv)
        return out

    def _phi_join(self, header, reg, ev, lv, pv) -> AbsVal:
        sym = f"phi:{header}:{reg}"
        interval = ivl_join(ev.interval, lv.interval)
        uniform = ev.uniform and lv.uniform
        if ev.affine is None or lv.affine is None:
            if ev.affine == lv.affine:  # both None
                return av_join(ev, lv)
            return AbsVal(None, interval, uniform)
        base = pv.affine if pv is not None else None
        if base is not None and base.coeff(sym):
            delta = aff_sub(lv.affine, base)
            if delta is not None and delta.is_const:
                info = self.syms[sym]
                g = math.gcd(info.multiple_of, abs(delta.const))
                if delta.const and info.multiple_of != g:
                    info.multiple_of = g
                info.uniform = info.uniform and uniform
                return AbsVal(base, interval, self.affine_uniform(base))
            return AbsVal(None, interval, uniform)
        delta = aff_sub(lv.affine, ev.affine)
        if delta is not None and delta.is_const:
            if delta.const == 0:
                return av_join(ev, lv)
            c = delta.const
            rng = Interval(0, None) if c > 0 else Interval(None, 0)
            self.syms[sym] = SymInfo(
                rng, uniform=uniform, multiple_of=abs(c), header=header
            )
            aff = aff_add(ev.affine, aff_sym(sym))
            return AbsVal(aff, interval, self.affine_uniform(aff))
        return AbsVal(None, interval, uniform)

    @staticmethod
    def _plain_join(states):
        if len(states) == 1:
            return dict(states[0])
        out = dict(states[0])
        for s in states[1:]:
            for reg in list(out):
                if reg in s:
                    out[reg] = av_join(out[reg], s[reg])
                else:
                    del out[reg]
        return out

    @staticmethod
    def _widen(prev, new):
        out = {}
        for reg, av in new.items():
            pv = prev.get(reg)
            if pv is None or pv.interval == av.interval:
                out[reg] = av
                continue
            lo = av.interval.lo if av.interval.lo == pv.interval.lo else None
            hi = av.interval.hi if av.interval.hi == pv.interval.hi else None
            out[reg] = replace(av, interval=Interval(lo, hi))
        return out

    # -- edge refinement ----------------------------------------------

    def guard_refined_state(self, state, pred_reg, negated):
        """A copy of ``state`` refined by a ``@%p`` / ``@!%p`` guard
        being true -- the state seen by the threads that actually
        execute a predicated instruction.  ``None`` if no thread can."""
        state = dict(state)
        pv = state.get(pred_reg.name, TOP).pred
        if pv is None:
            return state
        for c in flatten_pred(pv, negated):
            state = self._apply_constraint(state, c)
            if state is None:
                return None
        return state

    def _refine_edge(self, out_state, src, dst):
        state = dict(out_state)
        term = self.cfg.blocks[src].terminator
        if term is None or not term.is_conditional_branch:
            return state
        taken = self.cfg.resolve_label(term.branch_target)
        succs = self.cfg.successors(src)
        fall = [s for s in succs if s != taken]
        if taken == dst and dst in fall:
            return state  # both edges land here: nothing to assert
        pv = self.av_of(term.pred, state).pred
        if pv is None:
            return state
        if dst == taken:
            negated = term.pred_negated
        else:
            negated = not term.pred_negated
        for c in flatten_pred(pv, negated):
            state = self._apply_constraint(state, c)
            if state is None:
                return None
        return state

    def _apply_constraint(self, state, c: PCmp):
        d_aff = aff_sub(c.lhs.affine, c.rhs.affine)
        d_base = ivl_sub(c.lhs.interval, c.rhs.interval)
        if c.cmp is CmpOp.NE:
            d_int = d_base
            if d_int.lo == 0:
                d_int = Interval(1, d_int.hi)
            if d_int.hi == 0:
                d_int = Interval(d_int.lo, -1)
        else:
            d_int = ivl_meet(d_base, _CMP_BOUND[c.cmp])
        if d_int.is_empty:
            return None
        if d_aff is not None and not d_aff.is_const:
            state = self._refine_by_affine(state, d_aff, d_int)
            if state is None:
                return None
        state = self._refine_div_origin(state, c, d_int)
        return state

    def _refine_by_affine(self, state, d_aff, d_int):
        """Clip every register whose affine form is ``alpha*d + const``
        to ``alpha*d_int + const``."""
        d_coeffs = dict(d_aff.coeffs)
        anchor, ac = d_aff.coeffs[0]
        for reg, av in list(state.items()):
            if av.affine is None or av.affine.is_const:
                continue
            alpha = Fraction(av.affine.coeff(anchor), ac)
            if alpha == 0:
                continue
            if dict(av.affine.coeffs) != {
                s: alpha * c for s, c in d_coeffs.items()
                if alpha * c != 0
            }:
                continue
            rest = av.affine.const - alpha * d_aff.const
            lo, hi = d_int.lo, d_int.hi
            if alpha < 0:
                lo, hi = hi, lo
            new = Interval(
                None if lo is None else math.ceil(alpha * lo + rest),
                None if hi is None else math.floor(alpha * hi + rest),
            )
            clipped = ivl_meet(av.interval, new)
            if clipped.is_empty:
                return None
            if clipped != av.interval:
                state[reg] = replace(av, interval=clipped)
        return state

    def _refine_div_origin(self, state, c: PCmp, d_int):
        """Push a bound on ``q = a div m`` back to the register still
        holding ``a``: ``q in [lo,hi]`` and ``a >= 0`` imply
        ``a in [lo*m, (hi+1)*m - 1]``."""
        for side, other, flip in ((c.lhs, c.rhs, False), (c.rhs, c.lhs, True)):
            org = side.origin
            if not (org and org[0] == "div"):
                continue
            if other.affine is None or not other.affine.is_const:
                continue
            oc = other.affine.const
            if flip:  # d = other - side  =>  side = other - d
                q_int = ivl_sub(Interval(oc, oc), d_int)
            else:  # d = side - other
                q_int = ivl_add(d_int, Interval(oc, oc))
            q_int = ivl_meet(q_int, Interval(0, None))
            _tag, a_snap, m, src = org
            av = state.get(src)
            if av is None or av.affine is None or a_snap.affine is None:
                continue
            if av.affine != a_snap.affine:
                continue  # the register moved on; snapshot is stale
            lo = None if q_int.lo is None else q_int.lo * m
            hi = None if q_int.hi is None else (q_int.hi + 1) * m - 1
            clipped = ivl_meet(av.interval, Interval(lo, hi))
            if clipped.is_empty:
                return None
            if clipped != av.interval:
                state[src] = replace(av, interval=clipped)
        return state

    # -- transfer -----------------------------------------------------

    def _sreg(self, kind: SRegKind) -> AbsVal:
        tc, bc = self.ctx.tc, self.ctx.bc
        if kind is SRegKind.TID_X:
            return AbsVal(aff_sym("tid"), Interval(0, tc - 1), False)
        if kind is SRegKind.NTID_X:
            return av_const(tc)
        if kind is SRegKind.CTAID_X:
            return AbsVal(aff_sym("ctaid"), Interval(0, bc - 1), True)
        if kind is SRegKind.NCTAID_X:
            return av_const(bc)
        if kind is SRegKind.LANEID:
            if tc <= 32:
                return AbsVal(aff_sym("tid"), Interval(0, tc - 1), False)
            return AbsVal(aff_sym("laneid"), Interval(0, 31), False)
        if kind in (SRegKind.TID_Y, SRegKind.CTAID_Y):
            return av_const(0)  # launches are 1-D
        if kind in (SRegKind.NTID_Y, SRegKind.NCTAID_Y):
            return av_const(1)
        return TOP

    def transfer(self, ins, state: dict[str, AbsVal]) -> None:
        if ins.dst is None:
            return
        av = self._compute(ins, state)
        if ins.pred is not None:
            pav = state.get(ins.pred.name, TOP)
            old = state.get(ins.dst.name, TOP)
            av = av_join(old, av)
            if not pav.uniform:
                av = replace(av, uniform=False)
        state[ins.dst.name] = av

    def _compute(self, ins, state: dict[str, AbsVal]) -> AbsVal:
        op = ins.opcode
        a = self.av_of(ins.srcs[0], state) if ins.srcs else TOP
        b = self.av_of(ins.srcs[1], state) if len(ins.srcs) > 1 else TOP

        if op is Opcode.MOV:
            return a
        if op is Opcode.CVT:
            return a
        if op is Opcode.LD:
            return self._load(ins, a)
        if op is Opcode.SETP:
            return self._setp(ins, a, b)
        if ins.dst.dtype.is_float or (
            ins.dtype is not None and ins.dtype.is_float
        ):
            return AbsVal(uniform=a.uniform and b.uniform)

        if op is Opcode.ADD:
            return AbsVal(
                aff_add(a.affine, b.affine),
                ivl_add(a.interval, b.interval),
                a.uniform and b.uniform,
            )
        if op is Opcode.SUB:
            return self._sub(a, b)
        if op in (Opcode.MUL, Opcode.MULWIDE):
            return self._mul(a, b, ins, state)
        if op is Opcode.MAD:
            prod = self._mul(a, b, ins, state)
            cval = self.av_of(ins.srcs[2], state)
            return AbsVal(
                aff_add(prod.affine, cval.affine),
                ivl_add(prod.interval, cval.interval),
                prod.uniform and cval.uniform,
            )
        if op is Opcode.DIV:
            return self._div(a, b, ins)
        if op is Opcode.SHL:
            if b.affine is not None and b.affine.is_const:
                return self._scaled(a, 2 ** b.affine.const)
            return AbsVal(uniform=a.uniform and b.uniform)
        if op is Opcode.SHR:
            if b.affine is not None and b.affine.is_const:
                return self._div(a, av_const(2 ** b.affine.const), ins)
            return AbsVal(uniform=a.uniform and b.uniform)
        if op is Opcode.NEG:
            return self._scaled(a, -1)
        if op is Opcode.ABS:
            nonneg = a.interval.lo is not None and a.interval.lo >= 0
            ivl = a.interval if nonneg else ivl_join(
                ivl_meet(a.interval, Interval(0, None)),
                ivl_neg(ivl_meet(a.interval, Interval(None, 0))),
            )
            return AbsVal(a.affine if nonneg else None, ivl, a.uniform)
        if op in (Opcode.MIN, Opcode.MAX):
            pick = min if op is Opcode.MIN else max
            lo = (
                None if None in (a.interval.lo, b.interval.lo)
                else pick(a.interval.lo, b.interval.lo)
            )
            hi = (
                None if None in (a.interval.hi, b.interval.hi)
                else pick(a.interval.hi, b.interval.hi)
            )
            return AbsVal(None, Interval(lo, hi), a.uniform and b.uniform)
        if op in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT):
            return self._logic(op, ins, a, b)
        if op is Opcode.SELP:
            cond = self.av_of(ins.srcs[2], state)
            out = av_join(a, b)
            return replace(out, uniform=out.uniform and cond.uniform)
        return AbsVal(uniform=a.uniform and b.uniform)

    def _load(self, ins, addr: AbsVal) -> AbsVal:
        if ins.space is MemSpace.PARAM:
            ref = ins.srcs[0]
            name = ref.name if isinstance(ref, ParamRef) else None
            param = next(
                (p for p in self.kernel.params if p.name == name), None
            )
            if param is not None and param.is_pointer:
                return AbsVal(
                    aff_sym(f"ptr:{name}"), Interval(0, 0), True
                )
            val = self.ctx.params.get(name)
            if isinstance(val, int) and not ins.dtype.is_float:
                return av_const(val)
            return AbsVal(uniform=True)
        # data loads: value unknown; a load from a block-uniform address
        # yields a block-uniform value
        return AbsVal(uniform=addr.uniform)

    def _setp(self, ins, a: AbsVal, b: AbsVal) -> AbsVal:
        uniform = a.uniform and b.uniform
        if not uniform:
            uniform = self._window_uniform(
                aff_sub(a.affine, b.affine), ins.cmp
            )
        return AbsVal(
            interval=Interval(0, 1), uniform=uniform,
            pred=PCmp(a, b, ins.cmp),
        )

    def _window_uniform(self, d: Affine | None, cmp: CmpOp) -> bool:
        """Window lemma: ``tid + R  cmp  0`` with ``R`` block-uniform
        and congruent to 0 mod ntid crosses only at block boundaries,
        so every thread of a block agrees (strict comparisons only)."""
        if d is None or cmp not in (CmpOp.LT, CmpOp.GE):
            return False
        tc = self.ctx.tc
        if d.const % tc:
            return False
        for s, c in d.coeffs:
            if s == "tid":
                if c != 1:
                    return False
                continue
            info = self.syms[s]
            if not info.uniform:
                return False
            if (c * info.multiple_of) % tc:
                return False
        return d.coeff("tid") == 1

    def _sub(self, a: AbsVal, b: AbsVal) -> AbsVal:
        mod = self._try_mod(a, b)
        if mod is not None:
            return mod
        return AbsVal(
            aff_sub(a.affine, b.affine),
            ivl_sub(a.interval, b.interval),
            a.uniform and b.uniform,
        )

    def _try_mod(self, a: AbsVal, b: AbsVal) -> AbsVal | None:
        """Recognize ``a - (a div m)*m`` and normalize the remainder.

        The codegen lowers ``x % m`` to div/mul/sub; when the dividend
        is provably the same affine value and nonnegative, the result
        is ``a mod m``.  If the coefficient-reduced residual already
        fits in ``[0, m)`` it *is* the remainder (``gtid % ntid -> tid``
        under a launch whose grid stride is a multiple of ``ntid``);
        otherwise we keep the ``[0, m-1]`` interval and an opaque
        origin."""
        org = b.origin
        if not (org and org[0] == "divmul"):
            return None
        _tag, a_snap, m = org
        if a.affine is None or a.affine != a_snap.affine:
            return None
        if a.interval.lo is None or a.interval.lo < 0:
            return None
        coeffs = {}
        exact = True
        for s, c in a.affine.coeffs:
            info = self.syms[s]
            if info.header is not None or s.startswith("ptr:"):
                # strided loop symbol: drops iff every step is 0 mod m
                if (c * info.multiple_of) % m == 0:
                    continue
                exact = False
                coeffs[s] = c
            else:
                if c % m:
                    coeffs[s] = c % m
        residual = Affine.make(coeffs, a.affine.const % m)
        origin = ("mod", a_snap, m)
        if exact:
            r_ivl = self.affine_interval(residual)
            if Interval(0, m - 1).contains(r_ivl):
                return AbsVal(
                    residual, r_ivl,
                    self.affine_uniform(residual), origin,
                )
        return AbsVal(None, Interval(0, m - 1), a.uniform, origin)

    def _mul(self, a: AbsVal, b: AbsVal, ins, state) -> AbsVal:
        for x, y in ((a, b), (b, a)):
            if y.affine is not None and y.affine.is_const:
                k = y.affine.const
                out = self._scaled(x, k)
                if (
                    x.origin is not None
                    and x.origin[0] == "div"
                    and k == x.origin[2]
                ):
                    out = replace(
                        out, origin=("divmul", x.origin[1], k)
                    )
                return out
        return AbsVal(
            None, ivl_mul(a.interval, b.interval),
            a.uniform and b.uniform,
        )

    @staticmethod
    def _scaled(a: AbsVal, k: int) -> AbsVal:
        return AbsVal(
            aff_scale(a.affine, k), ivl_scale(a.interval, k), a.uniform
        )

    def _div(self, a: AbsVal, b: AbsVal, ins) -> AbsVal:
        if ins.dtype is not None and ins.dtype.is_float:
            return AbsVal(uniform=a.uniform and b.uniform)
        if b.affine is None or not b.affine.is_const or b.affine.const <= 0:
            return AbsVal(uniform=a.uniform and b.uniform)
        m = b.affine.const
        if a.affine is not None and a.affine.is_const:
            return av_const(int(a.affine.const / m))  # trunc division
        nonneg = a.interval.lo is not None and a.interval.lo >= 0
        if nonneg:
            lo = a.interval.lo // m
            hi = None if a.interval.hi is None else a.interval.hi // m
            ivl = Interval(lo, hi)
        else:
            ends = [
                int(v / m)
                for v in (a.interval.lo, a.interval.hi)
                if v is not None
            ]
            ivl = (
                Interval(min(ends), max(ends))
                if len(ends) == 2 else TOP_IVL
            )
        origin = None
        src = ins.srcs[0]
        if nonneg and isinstance(src, Reg):
            origin = ("div", a, m, src.name)
        return AbsVal(None, ivl, a.uniform, origin)

    def _logic(self, op, ins, a: AbsVal, b: AbsVal) -> AbsVal:
        if ins.dst.dtype is DType.PRED:
            pv = None
            if op is Opcode.AND and a.pred is not None and b.pred is not None:
                pv = PAnd(a.pred, b.pred)
            elif op is Opcode.OR and a.pred is not None and b.pred is not None:
                pv = POr(a.pred, b.pred)
            elif op is Opcode.XOR:
                pv = None
            elif op is Opcode.NOT and a.pred is not None:
                pv = PNot(a.pred)
            return AbsVal(
                interval=Interval(0, 1),
                uniform=a.uniform and (op is Opcode.NOT or b.uniform),
                pred=pv,
            )
        ivl = TOP_IVL
        if op is Opcode.AND:
            for m in (a, b):
                if (
                    m.affine is not None and m.affine.is_const
                    and m.affine.const >= 0
                ):
                    ivl = ivl_meet(ivl, Interval(0, m.affine.const))
        return AbsVal(
            None, ivl,
            a.uniform and (op is Opcode.NOT or b.uniform),
        )

