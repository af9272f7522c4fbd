"""Warp-level SIMT functional emulator: dispatch core and scalar path.

Executes compiled kernels exactly as a streaming multiprocessor would at
warp granularity: 32 lanes in lockstep, per-lane guard predicates, and a
reconvergence stack that serializes divergent branch arms and rejoins at
the immediate post-dominator of the branch block (the paper's Fig. 1
behaviour).

The emulator serves three purposes:

1. *correctness*: compiled kernels are validated against the NumPy
   reference implementations of each benchmark;
2. *ground truth*: per-category dynamic instruction counts (thread-level
   and warp-issue-level) back-validate the closed-form counting model in
   :mod:`repro.sim.counting`;
3. *divergence measurement*: warp issues with partially-filled masks
   quantify the serialization loss the static divergence analysis predicts.

Two execution paths produce identical results (memory state and every
instruction counter, bit for bit):

- the **scalar path** in this module runs one warp at a time through the
  reconvergence stack -- the reference semantics;
- the **vectorized path** in :mod:`repro.sim.vector` stacks all resident
  warps of a launch into one ``(n_warps, 32)`` register file and executes
  each instruction once as a NumPy op over the whole stack, peeling
  divergent warps onto reconvergence-stack arm entries and re-merging
  them at the join.

:func:`emulate_kernel` routes through the vectorized path by default;
``mode="scalar"`` selects the reference path.  The path actually taken,
and how wide its dispatch was, is recorded in :class:`LaunchProfile` on
``EmulationResult.profile``.

It is a functional simulator, not a timing simulator -- cycle estimates
come from :mod:`repro.sim.timing`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.codegen.compiler import CompiledKernel, CompiledModule
from repro.ptx.cfg import CFG, EXIT, build_cfg
from repro.ptx.instruction import Imm, Instruction, ParamRef, Reg, SReg
from repro.ptx.isa import CmpOp, DType, MemSpace, Opcode, SRegKind
from repro.sim.memory import DeviceMemory

WARP = 32

_NP_DTYPE = {
    DType.F32: np.float32,
    DType.F64: np.float64,
    DType.S32: np.int32,
    DType.U32: np.uint32,
    DType.S64: np.int64,
    DType.PRED: np.bool_,
}


class EmulationError(RuntimeError):
    """Raised when a kernel misbehaves under emulation."""


EMU_MODES = ("vector", "scalar")
"""Selectable execution paths (the ``mode`` argument)."""


def emulation_mode(mode: str | None = None) -> str:
    """The emulator execution path ``mode`` names: the vectorized fast
    path by default."""
    mode = mode or "vector"
    if mode not in EMU_MODES:
        raise ValueError(
            f"unknown emulator mode {mode!r}; choose one of {EMU_MODES}"
        )
    return mode


@dataclass(frozen=True)
class LaunchProfile:
    """Execution-path diagnostics for one emulated launch.

    Not part of the architectural result (two runs of the same launch on
    different paths compare equal on :class:`EmulationResult`); this is
    the meta-record of *how* the emulator retired the launch.
    """

    mode: str
    """Path taken: ``grid`` (whole launch stacked) or ``scalar``
    (per-warp reference path); ``mixed`` after merging results of
    launches that took different paths."""

    wall_seconds: float
    """Host wall-clock time spent executing the launch."""

    issue_slots: int
    """Warp-level instruction issues retired (== ``total_issues``)."""

    dispatch_steps: int
    """Interpreter dispatch steps that retired them.  The scalar path
    takes one step per issue; the stacked path retires one issue per
    resident warp per step."""

    @property
    def mean_stack_width(self) -> float:
        """Mean warps retired per dispatch step (1.0 = scalar speed)."""
        if self.dispatch_steps == 0:
            return 1.0
        return self.issue_slots / self.dispatch_steps

    def merged(self, other: "LaunchProfile") -> "LaunchProfile":
        return LaunchProfile(
            mode=self.mode if self.mode == other.mode else "mixed",
            wall_seconds=self.wall_seconds + other.wall_seconds,
            issue_slots=self.issue_slots + other.issue_slots,
            dispatch_steps=self.dispatch_steps + other.dispatch_steps,
        )


@dataclass
class EmulationResult:
    """Dynamic behaviour of one kernel launch."""

    thread_counts: Counter = field(default_factory=Counter)
    """Executed instructions per category, summed over active lanes."""

    warp_issues: Counter = field(default_factory=Counter)
    """Warp-level instruction issues per category (each issue once)."""

    reg_ops: int = 0
    """Register-operand traffic summed over active lanes."""

    divergent_branches: int = 0
    """Conditional branches where lanes of one warp went both ways."""

    branch_count: int = 0
    """Conditional branches executed (warp level)."""

    partial_issues: int = 0
    """Warp issues with fewer than 32 active lanes."""

    total_issues: int = 0

    profile: LaunchProfile | None = field(
        default=None, compare=False, repr=False
    )
    """How the launch was executed (path, width, wall time); diagnostic
    only -- excluded from equality so scalar and vectorized results of
    the same launch compare equal."""

    @property
    def total_thread_instructions(self) -> int:
        return sum(self.thread_counts.values())

    @property
    def simd_efficiency(self) -> float:
        """Mean active lanes per issue / 32 (1.0 = no divergence loss)."""
        if self.total_issues == 0:
            return 1.0
        return self.total_thread_instructions / (self.total_issues * WARP)

    def merge(self, other: "EmulationResult") -> None:
        self.thread_counts.update(other.thread_counts)
        self.warp_issues.update(other.warp_issues)
        self.reg_ops += other.reg_ops
        self.divergent_branches += other.divergent_branches
        self.branch_count += other.branch_count
        self.partial_issues += other.partial_issues
        self.total_issues += other.total_issues
        if self.profile is not None and other.profile is not None:
            self.profile = self.profile.merged(other.profile)
        else:
            self.profile = self.profile or other.profile


@dataclass(frozen=True)
class SmemRace:
    """One happens-before violation on shared memory.

    Two accesses to the same byte, at least one a store and not both
    atomic, by different threads of the same block, in the same barrier
    interval (``phase`` = number of ``bar.sync`` the accessing thread
    has retired): nothing orders them, so the program's result depends
    on warp scheduling.
    """

    kernel: str
    block: int
    byte: int
    phase: int
    kind_a: str
    tid_a: int
    kind_b: str
    tid_b: int

    def __str__(self):
        ta = "<multiple>" if self.tid_a < 0 else str(self.tid_a)
        tb = "<multiple>" if self.tid_b < 0 else str(self.tid_b)
        return (
            f"{self.kernel}: shared-memory race on byte {self.byte} of "
            f"block {self.block} in barrier interval {self.phase}: "
            f"{self.kind_a} by tid {ta} vs {self.kind_b} by tid {tb}"
        )


#: tracker class -> conflicting tracker classes (LD/LD and RED/RED pairs
#: commute; everything else on the same byte in the same phase races)
_CONFLICTS = {"w": ("w", "r", "a"), "r": ("w", "a"), "a": ("w", "r")}
_CLASS_OF = {"st": "w", "ld": "r", "red": "a"}
_KIND_OF = {"w": "st", "r": "ld", "a": "red"}


class SmemSanitizer:
    """Happens-before race detector for shared memory.

    The emulator's barrier protocol already guarantees that all warps of
    a block retire barrier *k* before any executes past it, so the
    happens-before order within a block is exactly the barrier-interval
    order: accesses in different intervals are ordered, accesses in the
    same interval by different threads are not.  The sanitizer shadows
    every shared-memory byte with its last write/read/atomic access
    ``(phase, tid)`` (``tid = -2`` once several threads touched it in
    the same phase) and reports a :class:`SmemRace` whenever an
    unordered conflicting pair shows up.  This is the dynamic mirror of
    the static ``smem-race`` checker in :mod:`repro.analyze.checkers`
    and the oracle the fuzz cross-validation compares it against.

    One instance can observe a whole multi-kernel benchmark: kernel
    launches are global barriers, so :meth:`begin_launch` resets the
    shadow state while :attr:`races` accumulates across launches.
    """

    def __init__(self):
        self.races: list[SmemRace] = []
        self._mark = 0
        self._kernel = ""
        self._smem_bytes = 0
        self._track: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def begin_launch(self, kernel_name: str, bc: int, smem_bytes: int,
                     fresh: bool = True) -> None:
        """Reset shadow state for a new launch.

        ``fresh=False`` re-begins the *same* launch (the vectorized
        path's scalar fallback re-executes from a memory snapshot):
        races recorded by the abandoned speculative run are dropped.
        """
        if fresh:
            self._mark = len(self.races)
        else:
            del self.races[self._mark:]
        self._kernel = kernel_name
        self._smem_bytes = smem_bytes
        self._track = {
            cls: (
                np.full(bc * smem_bytes, -1, dtype=np.int64),
                np.full(bc * smem_bytes, -1, dtype=np.int64),
            )
            for cls in ("w", "r", "a")
        }

    def record(self, kind: str, blocks: np.ndarray, bytes_idx: np.ndarray,
               tids: np.ndarray, phases: np.ndarray) -> None:
        """Observe one instruction's byte accesses.

        ``blocks``/``bytes_idx``/``tids``/``phases`` are parallel flat
        arrays, one entry per (lane, byte-of-access); ``kind`` is
        ``st``/``ld``/``red``.
        """
        if bytes_idx.size == 0 or self._smem_bytes == 0:
            return
        cls = _CLASS_OF[kind]
        keys = blocks.astype(np.int64) * self._smem_bytes + bytes_idx
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        tids_s = tids[order]
        phases_s = phases[order]
        uniq, start = np.unique(keys_s, return_index=True)
        rep_tid = tids_s[start].copy()
        phases_u = phases_s[start]
        # collapse same-byte groups: one tid, or -2 for several
        first_of = np.repeat(start, np.diff(np.append(start, keys_s.size)))
        multi = np.logical_or.reduceat(tids_s != tids_s[first_of], start)
        rep_tid[multi] = -2
        if kind == "st" and multi.any():
            # two lanes of one store instruction hit the same byte
            i = int(np.argmax(multi))
            self._report(uniq[i], int(phases_u[i]), "st", -2, "st", -2)
        for other in _CONFLICTS[cls]:
            oph, otd = self._track[other]
            p = oph[uniq]
            t = otd[uniq]
            clash = (p == phases_u) & ((t == -2) | (t != rep_tid))
            if clash.any():
                i = int(np.argmax(clash))
                self._report(uniq[i], int(phases_u[i]), kind,
                             int(rep_tid[i]), _KIND_OF[other], int(t[i]))
        ph, td = self._track[cls]
        cur_ph = ph[uniq]
        cur_td = td[uniq]
        td[uniq] = np.where(
            (cur_ph == phases_u) & (cur_td != rep_tid), -2, rep_tid
        )
        ph[uniq] = phases_u

    def _report(self, key: int, phase: int, kind_a: str, tid_a: int,
                kind_b: str, tid_b: int) -> None:
        self.races.append(SmemRace(
            kernel=self._kernel,
            block=int(key) // self._smem_bytes,
            byte=int(key) % self._smem_bytes,
            phase=phase,
            kind_a=kind_a,
            tid_a=tid_a,
            kind_b=kind_b,
            tid_b=tid_b,
        ))


def _trunc_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C-style truncating integer division, safe under zero divisors."""
    bz = b == 0
    bb = np.where(bz, 1, b)
    q = np.floor_divide(a, bb)
    rem = a - q * bb
    # floor -> trunc correction for mixed signs
    q = q + ((rem != 0) & ((a < 0) != (b < 0)))
    return np.where(bz, 0, q).astype(a.dtype, copy=False)


class _Warp:
    """Execution state of one warp."""

    def __init__(self, emu: "_KernelRun", warp_id: int, block_id: int):
        self.emu = emu
        self.lane = np.arange(WARP, dtype=np.int32)
        self.tid = warp_id * WARP + self.lane  # thread index within block
        self.block_id = block_id
        self.regs: dict[str, np.ndarray] = {}
        self.exited = np.zeros(WARP, dtype=bool)
        self.bars = 0  # barriers retired (the sanitizer's phase clock)
        # lanes beyond blockDim are never launched
        self.exited[self.tid >= emu.tc] = True

    # -- register access ---------------------------------------------------

    def read(self, op, want: DType | None = None) -> np.ndarray:
        if isinstance(op, Reg):
            if op.name not in self.regs:
                raise EmulationError(f"read of undefined register {op.name}")
            return self.regs[op.name]
        if isinstance(op, Imm):
            dt = _NP_DTYPE[op.dtype]
            return np.full(WARP, op.value, dtype=dt)
        if isinstance(op, SReg):
            return self._sreg(op.kind)
        raise EmulationError(f"cannot read operand {op!r}")

    def _sreg(self, kind: SRegKind) -> np.ndarray:
        emu = self.emu
        if kind is SRegKind.TID_X:
            return self.tid.astype(np.int32)
        if kind is SRegKind.NTID_X:
            return np.full(WARP, emu.tc, dtype=np.int32)
        if kind is SRegKind.CTAID_X:
            return np.full(WARP, self.block_id, dtype=np.int32)
        if kind is SRegKind.NCTAID_X:
            return np.full(WARP, emu.bc, dtype=np.int32)
        if kind is SRegKind.LANEID:
            return self.lane.copy()
        raise EmulationError(f"special register {kind} not modelled")

    def write(self, reg: Reg, value: np.ndarray, mask: np.ndarray) -> None:
        dt = _NP_DTYPE[reg.dtype]
        if reg.name not in self.regs:
            self.regs[reg.name] = np.zeros(WARP, dtype=dt)
        self.regs[reg.name][mask] = value.astype(dt, copy=False)[mask]


class _KernelRun:
    """One kernel launch being emulated."""

    def __init__(self, ck: CompiledKernel, params: dict, tc: int, bc: int,
                 memory: DeviceMemory,
                 sanitizer: SmemSanitizer | None = None):
        self.ck = ck
        self.tc = tc
        self.bc = bc
        self.memory = memory
        self.sanitizer = sanitizer
        self.result = EmulationResult()

        self.cfg: CFG = build_cfg(ck.ir)
        self.ipdom = self.cfg.immediate_post_dominators()
        self.entry = self.cfg.entry_block
        self._block_order = list(self.cfg.blocks)
        self._next_of = {}
        for i, name in enumerate(self._block_order):
            self._next_of[name] = (
                self._block_order[i + 1] if i + 1 < len(self._block_order)
                else None
            )

        # resolve parameters
        self.param_values: dict[str, np.ndarray] = {}
        for p in ck.ir.params:
            if p.name not in params:
                raise EmulationError(f"missing kernel argument {p.name!r}")
            v = params[p.name]
            if p.is_pointer:
                alloc = memory.allocation(p.name)
                self.param_values[p.name] = np.full(
                    WARP, alloc.base, dtype=np.int64
                )
            else:
                dt = _NP_DTYPE[p.dtype]
                self.param_values[p.name] = np.full(WARP, v, dtype=dt)

        self.smem_bytes = ck.ir.static_smem_bytes

    # -- whole-launch driver -------------------------------------------

    def run(self, max_issues_per_warp: int = 5_000_000) -> EmulationResult:
        warps_per_block = -(-self.tc // WARP)
        has_bar = any(
            isinstance(it, Instruction) and it.opcode is Opcode.BAR
            for it in self.ck.ir.body
        )
        for block_id in range(self.bc):
            smem = (
                np.zeros(self.smem_bytes, dtype=np.uint8)
                if self.smem_bytes else None
            )
            runners = [
                self._warp_runner(_Warp(self, w, block_id), smem,
                                  max_issues_per_warp)
                for w in range(warps_per_block)
            ]
            if not has_bar:
                for r in runners:
                    for _ in r:
                        raise EmulationError(
                            "barrier yielded by kernel without bar.sync"
                        )
            else:
                live = list(runners)
                while live:
                    nxt = []
                    for r in live:
                        try:
                            next(r)
                            nxt.append(r)  # hit a barrier; resume next round
                        except StopIteration:
                            pass
                    if nxt and len(nxt) != len(live):
                        # warps must all reach the same barrier
                        raise EmulationError(
                            "divergent bar.sync: some warps finished while "
                            "others wait at a barrier"
                        )
                    live = nxt
        return self.result

    # -- per-warp SIMT execution -----------------------------------------

    def _warp_runner(self, warp: _Warp, smem, max_issues: int):
        """Generator: executes one warp, yielding at each bar.sync."""
        full = ~warp.exited
        if not full.any():
            return
        issues = 0
        # stack of (block, mask, reconv)
        stack: list[tuple[str, np.ndarray, str | None]] = [
            (self.entry, full.copy(), None)
        ]
        while stack:
            block, mask, reconv = stack.pop()
            while True:
                mask = mask & ~warp.exited
                if not mask.any():
                    break
                blk = self.cfg.blocks[block]
                branch_taken = None
                for ins in blk.instructions:
                    issues += 1
                    if issues > max_issues:
                        raise EmulationError(
                            f"warp exceeded {max_issues} issues in "
                            f"{self.ck.name} (runaway loop?)"
                        )
                    base = mask & ~warp.exited
                    em = base
                    if ins.pred is not None:
                        pv = warp.read(ins.pred).astype(bool)
                        em = em & (~pv if ins.pred_negated else pv)
                    # counting uses the region mask (`base`): a predicated-
                    # off instruction still occupies its issue slot for the
                    # lane, matching the region model's accounting
                    self._count(ins, base)
                    if ins.opcode is Opcode.BRA:
                        branch_taken = em.copy()
                        continue
                    if ins.opcode is Opcode.BAR:
                        yield "bar"
                        warp.bars += 1
                        continue
                    if ins.opcode in (Opcode.EXIT, Opcode.RET):
                        warp.exited |= em
                        continue
                    if not em.any():
                        continue
                    self._execute(warp, ins, em, smem)

                # decide successor(s)
                mask = mask & ~warp.exited
                if not mask.any():
                    break
                term = blk.terminator
                if term is None or term.opcode in (Opcode.EXIT, Opcode.RET):
                    nxt = self._next_of[block] if term is None else None
                    if term is None and nxt is not None:
                        block = nxt
                        if block == reconv:
                            break
                        continue
                    break
                # branch terminator (targets may be label aliases of a
                # collapsed block -- resolve through the CFG)
                target = self.cfg.resolve_label(term.branch_target)
                fall = self._next_of[block]
                if term.pred is None:
                    block = target
                    if block == reconv:
                        break
                    continue
                taken = branch_taken & mask
                ntaken = mask & ~taken
                self.result.branch_count += 1
                if not ntaken.any():
                    block = target
                elif not taken.any():
                    if fall is None:
                        break
                    block = fall
                else:
                    # true divergence: serialize via reconvergence stack
                    self.result.divergent_branches += 1
                    ipd = self.ipdom.get(block, EXIT)
                    if ipd != EXIT and ipd != reconv:
                        stack.append((ipd, mask.copy(), reconv))
                    # an arm that starts AT the reconvergence point has no
                    # work of its own: its lanes wait there for the other
                    # arm (pushing it would execute the join block early,
                    # with a partial mask -- doubling its instructions and
                    # any bar.sync for the divergent warp)
                    if fall is not None and fall != ipd:
                        stack.append((fall, ntaken, ipd))
                    if target != ipd:
                        stack.append((target, taken, ipd))
                    break
                if block == reconv or block == EXIT:
                    break

    # -- instruction semantics -------------------------------------------

    def _count(self, ins: Instruction, em: np.ndarray) -> None:
        cat = ins.category
        res = self.result
        res.warp_issues[cat] += 1
        res.total_issues += 1
        n = int(em.sum())
        res.thread_counts[cat] += n
        res.reg_ops += ins.register_operand_count() * n
        if n and n < WARP:
            res.partial_issues += 1

    def _execute(self, warp: _Warp, ins: Instruction, em: np.ndarray,
                 smem) -> None:
        op = ins.opcode

        if op is Opcode.LD:
            src = ins.srcs[0]
            if isinstance(src, ParamRef):
                warp.write(ins.dst, self.param_values[src.name], em)
                return
            addrs = warp.read(src.base).astype(np.int64) + src.offset
            if ins.space is MemSpace.SHARED:
                val = self._smem_gather(smem, addrs, em, ins.dtype, warp)
            else:
                val = self.memory.gather(addrs, em, ins.dtype)
            warp.write(ins.dst, val, em)
            return

        if op in (Opcode.ST, Opcode.RED):
            mem, vop = ins.srcs
            addrs = warp.read(mem.base).astype(np.int64) + mem.offset
            vals = warp.read(vop)
            if ins.space is MemSpace.SHARED:
                self._smem_scatter(smem, addrs, em, vals, ins.dtype,
                                   add=op is Opcode.RED, warp=warp)
            elif op is Opcode.RED:
                self.memory.scatter_add(addrs, em, vals, ins.dtype)
            else:
                self.memory.scatter(addrs, em, vals, ins.dtype)
            return

        if op is Opcode.MOV:
            warp.write(ins.dst, warp.read(ins.srcs[0]), em)
            return

        if op is Opcode.SETP:
            a = warp.read(ins.srcs[0])
            b = warp.read(ins.srcs[1])
            res = {
                CmpOp.LT: a < b, CmpOp.LE: a <= b, CmpOp.GT: a > b,
                CmpOp.GE: a >= b, CmpOp.EQ: a == b, CmpOp.NE: a != b,
            }[ins.cmp]
            warp.write(ins.dst, res, em)
            return

        if op is Opcode.SELP:
            a, b, p = (warp.read(s) for s in ins.srcs)
            warp.write(ins.dst, np.where(p.astype(bool), a, b), em)
            return

        if op is Opcode.CVT:
            v = warp.read(ins.srcs[0])
            warp.write(ins.dst, v.astype(_NP_DTYPE[ins.dtype]), em)
            return

        if op is Opcode.MULWIDE:
            a = warp.read(ins.srcs[0]).astype(np.int64)
            b = warp.read(ins.srcs[1]).astype(np.int64)
            warp.write(ins.dst, a * b, em)
            return

        # arithmetic / logic with uniform handling
        srcs = [warp.read(s) for s in ins.srcs]
        dt = _NP_DTYPE[ins.dtype] if ins.dtype else None
        with np.errstate(all="ignore"):
            val = self._arith(op, ins, srcs, dt)
        warp.write(ins.dst, val, em)

    @staticmethod
    def _arith(op: Opcode, ins: Instruction, srcs: list, dt) -> np.ndarray:
        a = srcs[0] if srcs else None
        b = srcs[1] if len(srcs) > 1 else None
        c = srcs[2] if len(srcs) > 2 else None
        if op is Opcode.ADD:
            return a + b
        if op is Opcode.SUB:
            return a - b
        if op is Opcode.MUL:
            return a * b
        if op in (Opcode.MAD, Opcode.FMA):
            return a * b + c
        if op is Opcode.DIV:
            if ins.dtype.is_float:
                return a / b
            return _trunc_div(a, b)
        if op is Opcode.NEG:
            return -a
        if op is Opcode.ABS:
            return np.abs(a)
        if op is Opcode.MIN:
            return np.minimum(a, b)
        if op is Opcode.MAX:
            return np.maximum(a, b)
        if op is Opcode.AND:
            return a & b
        if op is Opcode.OR:
            return a | b
        if op is Opcode.XOR:
            return a ^ b
        if op is Opcode.NOT:
            return ~a if a.dtype != np.bool_ else ~a
        if op is Opcode.SHL:
            return a << b.astype(a.dtype)
        if op is Opcode.SHR:
            return a >> b.astype(a.dtype)
        if op is Opcode.RCP:
            return (1.0 / a).astype(dt)
        if op is Opcode.SQRT:
            return np.sqrt(a).astype(dt)
        if op is Opcode.RSQRT:
            return (1.0 / np.sqrt(a)).astype(dt)
        if op is Opcode.EX2:
            return np.exp2(a).astype(dt)
        if op is Opcode.LG2:
            return np.log2(a).astype(dt)
        if op is Opcode.SIN:
            return np.sin(a).astype(dt)
        if op is Opcode.COS:
            return np.cos(a).astype(dt)
        raise EmulationError(f"unimplemented opcode {op}")

    # -- shared memory -----------------------------------------------------

    def _sanitize_warp(self, kind: str, warp: _Warp, addrs, em,
                       nbytes: int) -> None:
        base = addrs[em]
        bytes_idx = (base[:, None] + np.arange(nbytes)).ravel()
        tids = np.repeat(warp.tid[em], nbytes).astype(np.int64)
        blocks = np.full(bytes_idx.size, warp.block_id, dtype=np.int64)
        phases = np.full(bytes_idx.size, warp.bars, dtype=np.int64)
        self.sanitizer.record(kind, blocks, bytes_idx, tids, phases)

    def _smem_gather(self, smem, addrs, em, dtype: DType,
                     warp: _Warp) -> np.ndarray:
        np_dt = _NP_DTYPE[dtype]
        out = np.zeros(WARP, dtype=np_dt)
        if smem is None:
            raise EmulationError("shared access without shared memory")
        view = smem.view(np_dt)
        idx = (addrs[em] // dtype.nbytes).astype(np.int64)
        if (idx < 0).any() or (idx >= view.size).any():
            raise EmulationError("shared memory access out of bounds")
        if self.sanitizer is not None:
            self._sanitize_warp("ld", warp, addrs, em, dtype.nbytes)
        out[em] = view[idx]
        return out

    def _smem_scatter(self, smem, addrs, em, vals, dtype: DType, add: bool,
                      warp: _Warp) -> None:
        np_dt = _NP_DTYPE[dtype]
        if smem is None:
            raise EmulationError("shared access without shared memory")
        view = smem.view(np_dt)
        idx = (addrs[em] // dtype.nbytes).astype(np.int64)
        if (idx < 0).any() or (idx >= view.size).any():
            raise EmulationError("shared memory store out of bounds")
        if self.sanitizer is not None:
            self._sanitize_warp("red" if add else "st", warp, addrs, em,
                                dtype.nbytes)
        if add:
            np.add.at(view, idx, vals[em].astype(np_dt))
        else:
            view[idx] = vals[em].astype(np_dt)


def emulate_kernel(
    ck: CompiledKernel,
    inputs: dict,
    tc: int,
    bc: int,
    memory: DeviceMemory | None = None,
    mode: str | None = None,
    sanitizer: SmemSanitizer | None = None,
) -> tuple[EmulationResult, DeviceMemory]:
    """Run one compiled kernel on ``inputs``.

    Array inputs are copied into (or reused from) ``memory``; outputs are
    read back from the allocations after the run.  Returns the dynamic
    behaviour record and the device memory (for chaining multi-kernel
    benchmarks).

    ``mode`` selects the execution path (:data:`EMU_MODES`); by default
    the vectorized grid-level path, with ``"scalar"`` as the per-warp
    reference.  Both paths produce identical results; the one actually
    used is recorded on ``result.profile``.

    Passing a :class:`SmemSanitizer` turns on happens-before race
    checking for shared memory; findings accumulate on
    ``sanitizer.races`` (both execution paths feed it identically).
    """
    if tc <= 0 or bc <= 0:
        raise ValueError("tc and bc must be positive")
    if memory is None:
        memory = DeviceMemory()
        for p in ck.ir.params:
            if p.is_pointer:
                memory.alloc(p.name, np.asarray(inputs[p.name]).copy())
    if sanitizer is not None:
        sanitizer.begin_launch(ck.ir.name, bc, ck.ir.static_smem_bytes)
    with obs.span("launch", key=ck.ir.name,
                  args={"tc": tc, "bc": bc}) as sp:
        t0 = time.perf_counter()
        if emulation_mode(mode) == "vector":
            from repro.sim.vector import run_stacked

            result, path, steps = run_stacked(ck, inputs, tc, bc, memory,
                                              sanitizer=sanitizer)
        else:
            result = _KernelRun(ck, inputs, tc, bc, memory,
                                sanitizer=sanitizer).run()
            path, steps = "scalar", result.total_issues
        result.profile = profile = LaunchProfile(
            mode=path,
            wall_seconds=time.perf_counter() - t0,
            issue_slots=result.total_issues,
            dispatch_steps=steps,
        )
        sp.annotate(mode=path, issue_slots=profile.issue_slots,
                    stack_width=round(profile.mean_stack_width, 2))
    _record_profile(ck.ir.name, profile)
    return result, memory


def _record_profile(kernel: str, profile: LaunchProfile) -> None:
    """Feed a launch's :class:`LaunchProfile` into the metrics registry
    (previously the wall-time/path data was dropped once the result was
    consumed).  Per ``(kernel, mode)``: launch/issue/wall totals, a
    stack-width histogram, and a derived issues-per-second gauge -- the
    emulator-throughput numbers suite runs report."""
    m = obs.metrics
    if m is None:
        return
    lbl = {"kernel": kernel, "mode": profile.mode}
    m.add("emu.launches", 1, **lbl)
    m.add("emu.issue_slots", profile.issue_slots, **lbl)
    m.add("emu.wall_seconds", profile.wall_seconds, **lbl)
    m.observe("emu.stack_width", profile.mean_stack_width, **lbl)
    wall = m.value("emu.wall_seconds", **lbl)
    if wall > 0:
        m.set_gauge(
            "emu.issues_per_second",
            m.value("emu.issue_slots", **lbl) / wall,
            **lbl,
        )


def run_benchmark_emulated(
    module: CompiledModule,
    inputs: dict,
    tc: int,
    bc: int,
    mode: str | None = None,
    sanitizer: SmemSanitizer | None = None,
) -> tuple[dict, EmulationResult]:
    """Emulate all kernels of a benchmark in order on shared device memory.

    Returns (outputs dict with every array parameter's final contents,
    in the order the kernels first declare them, merged EmulationResult).
    """
    memory = DeviceMemory()
    names: list[str] = []
    for ck in module:
        for p in ck.ir.params:
            if p.is_pointer and p.name not in names:
                memory.alloc(p.name, np.asarray(inputs[p.name]).copy())
                names.append(p.name)
    total = EmulationResult()
    with obs.span("emulate", key=module.name,
                  args={"kernels": len(module), "tc": tc, "bc": bc}):
        for ck in module:
            res, _ = emulate_kernel(ck, inputs, tc, bc, memory, mode=mode,
                                    sanitizer=sanitizer)
            total.merge(res)
    outputs = {name: memory.allocation(name).data for name in names}
    return outputs, total
