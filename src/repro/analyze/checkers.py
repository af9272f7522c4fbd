"""Static kernel sanitizers built on the dataflow/value analyses.

Four checkers, each reporting :class:`Diagnostic` records pinned to a
``(block, instruction index)`` location:

``smem-race``
    Shared-memory conflicts between *barrier intervals*.  The blocks
    are cut into segments at every ``bar.sync``; two accesses can be in
    the same phase iff one segment reaches the other through a
    barrier-free path.  Same-phase conflicting accesses (at least one
    store, not both atomic) must then be proven disjoint either
    numerically (guard-refined byte intervals) or symbolically
    (tid-relative affine addresses with a stride covering the access
    width: ``addr(t) - addr(u) = c*(t-u)``, ``|c| >= nbytes``).

``divergent-barrier``
    A ``bar.sync`` whose execution depends on a non-block-uniform
    predicate: either directly guarded, or located in the *influence
    region* of a divergent conditional branch (the blocks between the
    branch and its immediate post-dominator).  This is the static
    mirror of the emulator's "divergent bar.sync" runtime error.

``uninit-read``
    Path-sensitive use-before-def via
    :class:`~repro.analyze.dataflow.GuardedDefinitions`: a read is
    clean if the register is written on all paths, or written under the
    same guard predicate the read carries.

``out-of-bounds``
    Address ranges of global/shared accesses vs. declared array extents
    and static shared-memory size, using the interval facet of the
    value analysis under the lint launch context.  Data-dependent
    addresses (histogram bins, CSR column gathers, compaction cursors)
    have unbounded intervals and are skipped -- this checker only
    reports *provable* violations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyze.dataflow import GuardedDefinitions, linear_blocks
from repro.analyze.values import (
    AbsVal,
    Interval,
    LaunchContext,
    ValueAnalysis,
    ivl_meet,
)
from repro.ptx.cfg import CFG, EXIT, build_cfg, reach
from repro.ptx.isa import MemSpace, Opcode
from repro.ptx.module import KernelIR

CHECKS = ("smem-race", "divergent-barrier", "uninit-read", "out-of-bounds")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: ``check`` at instruction ``index`` of ``block``."""

    check: str
    kernel: str
    block: str
    index: int
    message: str

    def __str__(self):
        return (
            f"{self.kernel}/{self.block}[{self.index}]: "
            f"{self.check}: {self.message}"
        )


@dataclass
class KernelReport:
    """All diagnostics for one kernel, plus the analyses that produced
    them (kept for tests and the experiment renderer)."""

    kernel: KernelIR
    cfg: CFG
    values: ValueAnalysis
    diagnostics: list[Diagnostic]


def analyze_kernel(
    kernel: KernelIR, ctx: LaunchContext
) -> KernelReport:
    """Run the value analysis and all four checkers on one kernel."""
    cfg = build_cfg(kernel)
    va = ValueAnalysis(cfg, kernel, ctx).run()
    diags: list[Diagnostic] = []
    diags += check_uninitialized_reads(kernel, cfg)
    diags += check_divergent_barriers(kernel, cfg, va)
    diags += check_smem_races(kernel, cfg, va, ctx)
    diags += check_out_of_bounds(kernel, cfg, va, ctx)
    diags.sort(key=lambda d: (d.block, d.index, d.check))
    return KernelReport(kernel, cfg, va, diags)


# -- uninitialized reads ----------------------------------------------


def check_uninitialized_reads(
    kernel: KernelIR, cfg: CFG
) -> list[Diagnostic]:
    gd = GuardedDefinitions(cfg).solve()
    out = []
    for name, block, _start in linear_blocks(cfg):
        state = dict(gd.block_in.get(name, {}))
        for off, ins in enumerate(block.instructions):
            for r in ins.registers_read():
                if not gd.read_ok(ins, r.name, state):
                    out.append(Diagnostic(
                        "uninit-read", kernel.name, name, off,
                        f"register {r.name} may be read before "
                        f"definition on some path",
                    ))
            gd._transfer(ins, state)
    return out


# -- divergent barriers -----------------------------------------------


def _influence_region(cfg: CFG, branch_block: str) -> set[str]:
    """Blocks control-dependent on the branch: reachable from a
    successor without passing through the reconvergence point."""
    stop = (cfg.reconvergence_point(branch_block), EXIT)
    return reach(cfg.succ, cfg.succ[branch_block], stop)


def check_divergent_barriers(
    kernel: KernelIR, cfg: CFG, va: ValueAnalysis
) -> list[Diagnostic]:
    divergent_region: dict[str, str] = {}
    for name in cfg.conditional_branch_blocks():
        if not va.reachable(name) or va.branch_uniform(name):
            continue
        for member in _influence_region(cfg, name):
            divergent_region.setdefault(member, name)
    out = []
    for name in cfg.blocks:
        if not va.reachable(name):
            continue
        for off, ins, state in va.walk(name):
            if ins.opcode is not Opcode.BAR:
                continue
            if ins.pred is not None:
                pav = va.av_of(ins.pred, state)
                if not pav.uniform:
                    out.append(Diagnostic(
                        "divergent-barrier", kernel.name, name, off,
                        f"bar.sync guarded by non-uniform predicate "
                        f"{ins.pred.name}",
                    ))
                    continue
            if name in divergent_region:
                out.append(Diagnostic(
                    "divergent-barrier", kernel.name, name, off,
                    "bar.sync under divergent control flow (branch in "
                    f"block {divergent_region[name]} is not provably "
                    "block-uniform)",
                ))
    return out


# -- shared-memory races ----------------------------------------------


@dataclass
class _SmemAccess:
    block: str
    index: int
    seg: tuple[str, int]
    op: Opcode
    nbytes: int
    av: AbsVal


def _collect_smem_accesses(
    cfg: CFG, va: ValueAnalysis
) -> list[_SmemAccess]:
    out = []
    for name in cfg.blocks:
        if not va.reachable(name):
            continue
        bars = 0
        for off, ins, state in va.walk(name):
            if ins.opcode is Opcode.BAR:
                bars += 1
                continue
            if (
                ins.opcode not in (Opcode.LD, Opcode.ST, Opcode.RED)
                or ins.space is not MemSpace.SHARED
            ):
                continue
            if ins.pred is not None:
                refined = va.guard_refined_state(
                    state, ins.pred, ins.pred_negated
                )
                if refined is None:
                    continue  # guard statically false: never executes
                state = refined
            av = va.av_of(ins.srcs[0], state)
            out.append(_SmemAccess(
                name, off, (name, bars), ins.opcode,
                ins.dtype.nbytes, av,
            ))
    return out


def _segment_graph(cfg: CFG, va: ValueAnalysis) -> dict:
    """Barrier-interval graph as successor lists: blocks split at each
    ``bar.sync``; CFG edges connect a block's *last* segment to
    successors' segment 0.  Consecutive segments of one block are
    deliberately unconnected -- the barrier between them is a phase
    boundary."""
    seg: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for name, block in cfg.blocks.items():
        bars = sum(i.opcode is Opcode.BAR for i in block.instructions)
        for s in range(bars + 1):
            seg[(name, s)] = []
        if va.reachable(name):
            seg[(name, bars)] = [(s, 0) for s in cfg.successors(name)]
    return seg


def _stable_phi_syms(cfg: CFG, va: ValueAnalysis, seg: dict):
    """Phi symbols whose value is equal for two same-phase accesses
    inside their loop: the loop (and every enclosing loop) has a
    barrier on every cyclic path, so a barrier-free path can never
    cross an iteration boundary."""
    loops = cfg.natural_loops()

    def barrier_cut(loop) -> bool:
        # no segment of the loop reaches itself without leaving it
        inner = {n: [m for m in succs if m[0] in loop.body]
                 for n, succs in seg.items() if n[0] in loop.body}
        return not any(n in reach(inner, inner[n]) for n in inner)

    cut = {loop.header: barrier_cut(loop) for loop in loops}
    stable: dict[str, frozenset[str]] = {}
    for loop in loops:
        ok = cut[loop.header] and all(
            cut[outer.header]
            for outer in loops
            if outer.body > loop.body
        )
        if ok:
            for sym, info in va.syms.items():
                if info.header == loop.header:
                    stable[sym] = loop.body
    return stable


def _ranges_disjoint(a: _SmemAccess, b: _SmemAccess) -> bool:
    ia, ib = a.av.interval, b.av.interval
    if None not in (ia.hi, ib.lo) and ia.hi + a.nbytes - 1 < ib.lo:
        return True
    if None not in (ib.hi, ia.lo) and ib.hi + b.nbytes - 1 < ia.lo:
        return True
    return False


def _affine_safe(
    a: _SmemAccess, b: _SmemAccess, va: ValueAnalysis, stable
) -> bool:
    """Prove no two *distinct* threads overlap: both addresses reduce
    to ``c*tid + shared-part`` with the same ``c`` and shared parts
    cancelling, and the stride ``c`` clears the access widths for every
    feasible thread distance."""
    fa, fb = a.av.affine, b.av.affine
    if fa is None or fb is None:
        return False
    syms = {s for s, _ in fa.coeffs} | {s for s, _ in fb.coeffs}
    c_tid = None
    for s in syms:
        ca, cb = fa.coeff(s), fb.coeff(s)
        if s == "tid":
            if ca != cb:
                return False
            c_tid = ca
            continue
        if s == "laneid" or s.startswith("ptr:"):
            return False
        info = va.syms[s]
        shared = info.uniform or (
            s in stable and a.block in stable[s] and b.block in stable[s]
        )
        if not shared or ca != cb:
            return False
    c = c_tid or 0
    d = fa.const - fb.const
    if c == 0:
        # uniform address: every thread of the block hits it
        return False
    # overlap needs c*k + d in (-b.nbytes, a.nbytes) for a thread
    # distance k != 0; check the k nearest the crossing
    tc = va.ctx.tc
    k0 = round(-d / c)
    for k in (k0 - 1, k0, k0 + 1):
        if k == 0 or abs(k) > tc - 1:
            continue
        diff = c * k + d
        if -b.nbytes < diff < a.nbytes:
            return False
    return True


def check_smem_races(
    kernel: KernelIR, cfg: CFG, va: ValueAnalysis, ctx: LaunchContext
) -> list[Diagnostic]:
    if ctx.tc <= 1:
        return []
    accesses = _collect_smem_accesses(cfg, va)
    if not any(a.op in (Opcode.ST, Opcode.RED) for a in accesses):
        return []
    seg = _segment_graph(cfg, va)
    reaches = {n: reach(seg, [n]) for n in seg}
    stable = _stable_phi_syms(cfg, va, seg)
    flagged: dict[tuple[str, int], Diagnostic] = {}
    for i, a in enumerate(accesses):
        for b in accesses[i:]:
            if a.op is Opcode.LD and b.op is Opcode.LD:
                continue
            if a.op is Opcode.RED and b.op is Opcode.RED:
                continue
            if not (b.seg in reaches[a.seg] or a.seg in reaches[b.seg]):
                continue  # a barrier always separates them
            if _ranges_disjoint(a, b):
                continue
            if _affine_safe(a, b, va, stable):
                continue
            key = (a.block, a.index)
            if key not in flagged:
                flagged[key] = Diagnostic(
                    "smem-race", kernel.name, a.block, a.index,
                    f"{a.op.value}.shared here may conflict with "
                    f"{b.op.value}.shared at {b.block}[{b.index}] in "
                    "the same barrier interval (addresses not provably "
                    "disjoint across threads)",
                )
    return list(flagged.values())


# -- out-of-bounds ----------------------------------------------------


def _bounded_offset(av: AbsVal) -> Interval | None:
    """The access's byte-offset interval, if finite."""
    ivl = av.interval
    if ivl.lo is None or ivl.hi is None:
        return None
    return ivl


def check_out_of_bounds(
    kernel: KernelIR, cfg: CFG, va: ValueAnalysis, ctx: LaunchContext
) -> list[Diagnostic]:
    out = []
    smem_bytes = kernel.static_smem_bytes
    for name in cfg.blocks:
        if not va.reachable(name):
            continue
        for off, ins, state in va.walk(name):
            if ins.opcode not in (Opcode.LD, Opcode.ST, Opcode.RED):
                continue
            if ins.space not in (MemSpace.GLOBAL, MemSpace.SHARED):
                continue
            if ins.pred is not None:
                refined = va.guard_refined_state(
                    state, ins.pred, ins.pred_negated
                )
                if refined is None:
                    continue
                state = refined
            av = va.av_of(ins.srcs[0], state)
            ivl = _bounded_offset(av)
            if ivl is None:
                continue  # data-dependent address: not provable
            nbytes = ins.dtype.nbytes
            if ins.space is MemSpace.SHARED:
                array, extent = "shared memory", smem_bytes
            else:
                ptr_syms = [
                    s for s, c in (av.affine.coeffs if av.affine else ())
                    if s.startswith("ptr:")
                ]
                if len(ptr_syms) != 1 or av.affine.coeff(ptr_syms[0]) != 1:
                    continue  # cannot attribute the access to one array
                array = ptr_syms[0][4:]
                extent = ctx.extents.get(array)
            if extent is None:
                continue
            legal = Interval(0, extent - nbytes)
            if ivl_meet(ivl, legal) != ivl:
                out.append(Diagnostic(
                    "out-of-bounds", kernel.name, name, off,
                    f"{ins.opcode.value}.{ins.space.value} offset range "
                    f"[{ivl.lo}, {ivl.hi + nbytes - 1}] exceeds {array} "
                    f"extent {extent} bytes",
                ))
    return out


# -- lint drivers -----------------------------------------------------


def context_for_benchmark(bench, n: int | None = None) -> LaunchContext:
    """Launch context from a benchmark's smallest registered size: its
    emulation-safe launch, scalar parameter bindings, and input-array
    extents."""
    from repro.util.rng import rng_for

    n = bench.smallest_size if n is None else n
    tc, bc = bench.emu_launch(n)
    inputs = bench.make_inputs(n, rng_for("lint", bench.name, n))
    extents = {
        name: arr.nbytes
        for name, arr in inputs.items()
        if hasattr(arr, "nbytes")
    }
    params = dict(bench.param_env(n))
    for name, val in inputs.items():
        if isinstance(val, (int, float)) and name not in params:
            params[name] = val
    return LaunchContext(tc=tc, bc=bc, params=params, extents=extents)


def lint_benchmark(bench, n: int | None = None) -> list[KernelReport]:
    """Compile a registered benchmark at its smallest size and analyze
    every kernel under its emulation launch context."""
    from repro.arch import K20
    from repro.codegen.compiler import CompileOptions, compile_module

    ctx = context_for_benchmark(bench, n)
    module = compile_module(
        bench.name, list(bench.specs), CompileOptions(gpu=K20)
    )
    return [analyze_kernel(ck.ir, ctx) for ck in module]


def unexpected_diagnostics(bench, reports) -> list[Diagnostic]:
    """Diagnostics not covered by the benchmark's
    ``expected_diagnostics`` annotation (kernel-name, check) pairs."""
    expected = set(getattr(bench, "expected_diagnostics", ()) or ())
    return [
        d
        for rep in reports
        for d in rep.diagnostics
        if (rep.kernel.name, d.check) not in expected
        and (d.check not in expected)
    ]
