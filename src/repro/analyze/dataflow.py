"""Worklist dataflow solving over the kernel CFG.

The checkers in :mod:`repro.analyze.checkers` and the value-range
analysis in :mod:`repro.analyze.values` all need the same plumbing: a
fixed traversal order over :class:`repro.ptx.cfg.CFG` basic blocks, a
worklist iteration to a fixed point, and block-level transfer/join
plumbing.  This module provides that plus the three classical analyses
built directly on it:

- :class:`ReachingDefinitions` -- which definition sites can reach each
  program point (with a synthetic "undefined" site for registers never
  written on some path),
- :class:`MustDefined` -- the registers written on every path; the
  verifier's write-before-read check is a query over this, equivalent to
  asking the reaching definitions for the "undefined" site,
- :class:`Liveness` -- backward live-register sets,
- :class:`GuardedDefinitions` -- a path-sensitive definedness analysis
  that understands predicated definitions: a register written under
  ``@%p`` and read back under the same ``@%p`` is defined on every path
  that reaches the read *with the guard true*, which the linear check
  cannot see.

States are plain dicts keyed by register name; a block's transfer
function folds its instructions in (forward) or reverse (backward)
order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.ptx.cfg import CFG, EXIT, BasicBlock
from repro.ptx.instruction import Imm, Instruction, Reg
from repro.ptx.isa import CmpOp, Opcode

#: Synthetic definition site meaning "never written on this path".
UNDEF = -1

#: Guard-set value meaning "defined on every path, unconditionally".
ALWAYS = object()

_CMP = {
    CmpOp.LT: operator.lt,
    CmpOp.LE: operator.le,
    CmpOp.GT: operator.gt,
    CmpOp.GE: operator.ge,
    CmpOp.EQ: operator.eq,
    CmpOp.NE: operator.ne,
}


def _const_value(operand, consts: dict):
    if isinstance(operand, Imm):
        return operand.value
    if isinstance(operand, Reg):
        return consts.get(operand.name)
    return None


def infeasible_edges(cfg: CFG) -> frozenset[tuple[str, str]]:
    """Conditional-branch edges provably never taken.

    Block-local constant folding (``mov`` of an immediate, ``setp`` over
    known constants) decides some branch predicates outright -- most
    importantly the zero-trip bypass the loop lowering emits in front of
    a counted loop with a constant positive trip count
    (``mov %r, 0; setp.ge %p, %r, 5; @%p bra $exit``).  Pruning those
    edges keeps the may-analyses from dragging "uninitialized" facts
    along paths that cannot execute.
    """
    dead: set[tuple[str, str]] = set()
    for name, block in cfg.blocks.items():
        term = block.terminator
        if term is None or not term.is_conditional_branch:
            continue
        if term.branch_target is None:
            continue
        consts: dict[str, object] = {}
        for ins in block.instructions:
            if ins.dst is None:
                continue
            val = None
            if ins.pred is None:
                if ins.opcode is Opcode.MOV and len(ins.srcs) == 1:
                    val = _const_value(ins.srcs[0], consts)
                elif ins.opcode is Opcode.SETP:
                    a = _const_value(ins.srcs[0], consts)
                    b = _const_value(ins.srcs[1], consts)
                    if a is not None and b is not None:
                        val = _CMP[ins.cmp](a, b)
            if val is None:
                consts.pop(ins.dst.name, None)
            else:
                consts[ins.dst.name] = val
        pval = consts.get(term.pred.name)
        if not isinstance(pval, bool):
            continue
        taken = pval != term.pred_negated
        target = cfg.resolve_label(term.branch_target)
        succs = cfg.successors(name)
        if len(set(succs)) < 2:  # branch to the fall-through block
            continue
        for succ in succs:
            if (succ == target) != taken:
                dead.add((name, succ))
    return frozenset(dead)


def linear_blocks(cfg: CFG) -> list[tuple[str, BasicBlock, int]]:
    """Blocks in original body order with their global start index.

    ``cfg.blocks`` preserves insertion order, which is the order blocks
    appear in the flat instruction stream, so a running sum of block
    lengths recovers each instruction's index into
    ``kernel.instructions()`` -- the index the verifier puts in its
    error messages.
    """
    out = []
    start = 0
    for name, block in cfg.blocks.items():
        out.append((name, block, start))
        start += len(block.instructions)
    return out


class Dataflow:
    """Base class for a block-granular dataflow analysis.

    Subclasses define :attr:`FORWARD`, :meth:`boundary` (state at the
    kernel entry for forward / kernel exit for backward),
    :meth:`join` and :meth:`transfer_block`.  ``solve`` runs a worklist
    to a fixed point and stores per-block input/output states on
    ``self.block_in`` / ``self.block_out`` (in the direction of flow:
    for a backward analysis ``block_in`` is the state at the block's
    *end*).
    """

    FORWARD = True

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.block_in: dict[str, dict] = {}
        self.block_out: dict[str, dict] = {}
        # facts never flow along branches that provably cannot be taken
        self._dead_edges = infeasible_edges(cfg)

    # -- to be provided by subclasses ---------------------------------

    def boundary(self) -> dict:
        raise NotImplementedError

    def join(self, states: list[dict]) -> dict:
        raise NotImplementedError

    def transfer_block(self, block: BasicBlock, state: dict) -> dict:
        raise NotImplementedError

    # -- solver -------------------------------------------------------

    def _edges_in(self, name: str) -> list[str]:
        if self.FORWARD:
            return [
                p for p in self.cfg.predecessors(name)
                if (p, name) not in self._dead_edges
            ]
        return [
            s for s in self.cfg.successors(name)
            if (name, s) not in self._dead_edges
        ]

    def _edges_out(self, name: str) -> list[str]:
        if self.FORWARD:
            return [
                s for s in self.cfg.successors(name)
                if (name, s) not in self._dead_edges
            ]
        return [
            p for p in self.cfg.predecessors(name)
            if (p, name) not in self._dead_edges
        ]

    def _is_boundary(self, name: str) -> bool:
        if self.FORWARD:
            return name == self.cfg.entry_block
        return EXIT in self.cfg.succ[name]

    def solve(self) -> "Dataflow":
        order = self.cfg.reverse_postorder()
        if not self.FORWARD:
            order = list(reversed(order))
        pos = {name: i for i, name in enumerate(order)}
        work = list(order)
        in_work = set(order)
        while work:
            work.sort(key=pos.get, reverse=True)
            name = work.pop()
            in_work.discard(name)
            incoming = [
                self.block_out[p]
                for p in self._edges_in(name)
                if p in self.block_out
            ]
            if self._is_boundary(name):
                incoming = incoming + [self.boundary()]
            if not incoming:
                incoming = [self.boundary()]
            state = self.join(incoming)
            self.block_in[name] = state
            out = self.transfer_block(self.cfg.blocks[name], state)
            if self.block_out.get(name) != out:
                self.block_out[name] = out
                for succ in self._edges_out(name):
                    if succ not in in_work:
                        work.append(succ)
                        in_work.add(succ)
        return self


class ReachingDefinitions(Dataflow):
    """Forward may-analysis: per register, the set of definition sites
    (global instruction indices) that can reach a point.

    Every register starts with the synthetic :data:`UNDEF` site at the
    kernel entry; a definition strongly kills previous sites (predicated
    definitions count as full definitions, matching the verifier's
    linear semantics).  A register can be *read uninitialized* at a
    point iff :data:`UNDEF` is in its reaching set there.
    """

    def __init__(self, cfg: CFG):
        super().__init__(cfg)
        self.start_of: dict[str, int] = {
            name: start for name, _, start in linear_blocks(cfg)
        }

    def boundary(self) -> dict:
        return {}

    def join(self, states: list[dict]) -> dict:
        if len(states) == 1:  # one predecessor: nothing to merge
            return dict(states[0])
        keys = set()
        for s in states:
            keys.update(s)
        out = {}
        for k in keys:
            merged: frozenset[int] = frozenset()
            for s in states:
                merged |= s.get(k, frozenset({UNDEF}))
            out[k] = merged
        return out

    def transfer_block(self, block: BasicBlock, state: dict) -> dict:
        state = dict(state)
        idx = self.start_of[block.name]
        for ins in block.instructions:
            if ins.dst is not None:
                state[ins.dst.name] = frozenset({idx})
            idx += 1
        return state

    def reaching_at(self, block: str, offset: int) -> dict:
        """Reaching-definition sets just before instruction ``offset``
        of ``block``."""
        state = dict(self.block_in[block])
        idx = self.start_of[block]
        for ins in self.cfg.blocks[block].instructions[:offset]:
            if ins.dst is not None:
                state[ins.dst.name] = frozenset({idx})
            idx += 1
        return state


class MustDefined(Dataflow):
    """Forward must-analysis: the set of register names written on every
    feasible path to a point.

    This is the complement of the :data:`UNDEF` facet of
    :class:`ReachingDefinitions`: the join intersects where that one
    unions, a definition adds its name where that one replaces the site
    set, and the boundary (nothing defined) is that one's all-:data:`UNDEF`
    entry state.  Driven by the same solver, a name is missing here
    exactly where :data:`UNDEF` reaches it there, at a fraction of the
    cost, since no definition sites are carried.
    """

    def __init__(self, cfg: CFG):
        super().__init__(cfg)
        self.defined_in: dict[str, frozenset[str]] = {
            name: frozenset(
                ins.dst.name for ins in block.instructions
                if ins.dst is not None
            )
            for name, block in cfg.blocks.items()
        }

    def boundary(self) -> frozenset[str]:
        return frozenset()

    def join(self, states: list[frozenset[str]]) -> frozenset[str]:
        return frozenset.intersection(*states)

    def transfer_block(self, block: BasicBlock,
                       state: frozenset[str]) -> frozenset[str]:
        return state | self.defined_in[block.name]


def first_undefined_read(
    cfg: CFG,
) -> tuple[int, Instruction, str] | None:
    """First (in linear body order) register read that the reaching-
    definitions analysis cannot prove written, as
    ``(global_index, instruction, register_name)``.

    A register is flagged iff some *feasible* path from the entry
    reaches the read without a write: the solver prunes edges that
    :func:`infeasible_edges` can refute, so a register first defined
    inside a counted loop with a constant positive trip count (whose
    zero-trip bypass can never execute) is not a false positive.  The
    query runs on :class:`MustDefined`, which answers it exactly as a
    :class:`ReachingDefinitions` lookup for :data:`UNDEF` would.
    """
    md = MustDefined(cfg).solve()
    for name, block, start in linear_blocks(cfg):
        defined = set(md.block_in.get(name, ()))
        for off, ins in enumerate(block.instructions):
            for r in ins.registers_read():
                if r.name not in defined:
                    return start + off, ins, r.name
            if ins.dst is not None:
                defined.add(ins.dst.name)
    return None


class Liveness(Dataflow):
    """Backward liveness: the set of register names whose current value
    may still be read.  ``block_in[b]`` is the live set at the *end* of
    ``b`` (the analysis runs backward)."""

    FORWARD = False

    def boundary(self) -> dict:
        return {"live": frozenset()}

    def join(self, states: list[dict]) -> dict:
        live: frozenset[str] = frozenset()
        for s in states:
            live |= s["live"]
        return {"live": live}

    def transfer_block(self, block: BasicBlock, state: dict) -> dict:
        live = set(state["live"])
        for ins in reversed(block.instructions):
            if ins.dst is not None:
                live.discard(ins.dst.name)
            for r in ins.registers_read():
                live.add(r.name)
        return {"live": frozenset(live)}

    def live_out(self, block: str) -> frozenset[str]:
        return self.block_in[block]["live"]

    def live_in(self, block: str) -> frozenset[str]:
        return self.block_out[block]["live"]


@dataclass(frozen=True)
class Guard:
    """A predicate condition ``(%p == (not negated))`` under which a
    definition happened."""

    pred: str
    negated: bool


class GuardedDefinitions(Dataflow):
    """Path-sensitive definedness.

    Per register the state is either :data:`ALWAYS` (written
    unconditionally on every path) or a frozenset of :class:`Guard`
    covers: the register is known written whenever any of these guard
    conditions holds.  An empty set means "may be completely
    uninitialized".

    Rules:

    - an unpredicated definition sets :data:`ALWAYS`;
    - a definition under ``@%p`` adds ``Guard(p, False)`` (under
      ``@!%p``, ``Guard(p, True)``); if both polarities of the same
      predicate are present the register is covered on all paths and
      promotes to :data:`ALWAYS`;
    - redefining a predicate register invalidates every guard that
      mentions it (the old condition no longer describes the paths);
    - the join intersects guarantees (:data:`ALWAYS` is the universal
      element).

    A read under ``@%p`` is satisfied by :data:`ALWAYS` or by a cover
    containing the read's own guard; an unpredicated read needs
    :data:`ALWAYS`.
    """

    def boundary(self) -> dict:
        return {}

    def join(self, states: list[dict]) -> dict:
        keys = set(states[0])
        for s in states[1:]:
            keys &= set(s)
        out = {}
        for k in keys:
            vals = [s[k] for s in states]
            if all(v is ALWAYS for v in vals):
                out[k] = ALWAYS
                continue
            covers = [
                v if v is not ALWAYS else None for v in vals
            ]
            merged: frozenset[Guard] | None = None
            for c in covers:
                if c is None:  # ALWAYS: universal, keeps the other side
                    continue
                merged = c if merged is None else (merged & c)
            out[k] = merged if merged else frozenset()
        return out

    def transfer_block(self, block: BasicBlock, state: dict) -> dict:
        state = dict(state)
        for ins in block.instructions:
            self._transfer(ins, state)
        return state

    @staticmethod
    def _transfer(ins: Instruction, state: dict) -> None:
        if ins.dst is None:
            return
        name = ins.dst.name
        # the predicate's truth set changed: drop guards that mention it
        for reg, cover in list(state.items()):
            if cover is ALWAYS:
                continue
            kept = frozenset(g for g in cover if g.pred != name)
            if kept != cover:
                state[reg] = kept
        if ins.pred is None:
            state[name] = ALWAYS
            return
        guard = Guard(ins.pred.name, ins.pred_negated)
        prev = state.get(name, frozenset())
        if prev is ALWAYS:
            return
        cover = prev | {guard}
        if Guard(guard.pred, not guard.negated) in cover:
            state[name] = ALWAYS
        else:
            state[name] = cover

    @staticmethod
    def read_ok(ins: Instruction, reg: str, state: dict) -> bool:
        cover = state.get(reg, frozenset())
        if cover is ALWAYS:
            return True
        if ins.pred is not None:
            return Guard(ins.pred.name, ins.pred_negated) in cover
        return False
