"""Static branch-divergence analysis (paper Fig. 1 and Sec. II-A).

From the CFG alone, identify conditional branches whose predicate depends
(transitively) on the thread index: only these can split a warp.  For each,
estimate the serialization loss: when lanes of a warp take both arms, the
warp issues both arms' instructions, so the expected SIMD efficiency over a
region with a thread-dependent branch of taken-probability ``p`` is

    eff = (then_len * p + else_len * (1 - p)) /
          (then_len * P_any_then + else_len * P_any_else)

with ``P_any = 1 - (1-p)^32`` (resp. ``1 - p^32``) the probability that a
warp executes an arm at all.  Without a probability estimate the analyzer
uses p = 0.5, its standard static assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.compiler import CompiledKernel
from repro.ptx.cfg import CFG, EXIT, build_cfg, reach


@dataclass(frozen=True)
class BranchInfo:
    block: str
    then_len: int
    else_len: int
    expected_efficiency: float


@dataclass(frozen=True)
class DivergenceReport:
    """Static divergence summary for one kernel."""

    kernel: str
    conditional_branches: int
    divergent_branches: int
    branches: tuple
    expected_efficiency: float
    """Estimated SIMD efficiency over divergent regions (1.0 = none)."""


def _arm_lengths(cfg: CFG, block: str) -> tuple[int, int]:
    """Instruction counts of the two arms up to the reconvergence point."""
    stop = (cfg.reconvergence_point(block), block, EXIT)
    lens = [
        sum(len(cfg.blocks[b]) for b in reach(cfg.succ, [s], stop))
        for s in cfg.successors(block)[:2]
    ]
    while len(lens) < 2:
        lens.append(0)
    return lens[0], lens[1]


def expected_warp_efficiency(then_len: int, else_len: int,
                             p: float = 0.5, warp: int = 32) -> float:
    """Expected active-lane fraction across a divergent branch region."""
    if then_len + else_len == 0:
        return 1.0
    p = min(max(p, 0.0), 1.0)
    p_any_then = 1.0 - (1.0 - p) ** warp
    p_any_else = 1.0 - p ** warp
    useful = then_len * p + else_len * (1.0 - p)
    issued = then_len * p_any_then + else_len * p_any_else
    if issued == 0:
        return 1.0
    return useful / issued


def analyze_divergence(ck: CompiledKernel, p: float = 0.5) -> DivergenceReport:
    """Static divergence report for a compiled kernel.

    Loop latches and loop guards are excluded even when thread-dependent:
    trip-count differences across lanes cost at most one stray iteration,
    not arm serialization; the Fig. 1 effect comes from genuine if-branches.
    """
    cfg = build_cfg(ck.ir)
    cond = cfg.conditional_branch_blocks()
    loop_headers = {lp.header for lp in cfg.natural_loops()}
    latches = {lp.latch for lp in cfg.natural_loops()}
    divergent = [
        b for b in cfg.divergent_branch_blocks()
        if b not in latches
        and not (set(cfg.successors(b)) & loop_headers)
    ]

    infos = []
    for block in divergent:
        tl, el = _arm_lengths(cfg, block)
        infos.append(
            BranchInfo(
                block=block,
                then_len=tl,
                else_len=el,
                expected_efficiency=expected_warp_efficiency(tl, el, p),
            )
        )
    # overall: weight branch efficiencies by their region sizes
    total = sum(b.then_len + b.else_len for b in infos)
    if total == 0:
        eff = 1.0
    else:
        eff = sum(
            b.expected_efficiency * (b.then_len + b.else_len) for b in infos
        ) / total
    return DivergenceReport(
        kernel=ck.name,
        conditional_branches=len(cond),
        divergent_branches=len(infos),
        branches=tuple(infos),
        expected_efficiency=eff,
    )
