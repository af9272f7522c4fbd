"""Parameter suggestions (paper Table VII).

From purely static inputs -- the compiled kernel's registers per thread
``R_u``, its static shared memory ``S_u``, and the architecture -- compute:

- ``T*``: the thread counts (multiples of 32 up to ``T^cc_B``) that achieve
  the maximum attainable occupancy ``occ*`` under the kernel's resource
  usage (Eqs. 1-5);
- ``[R_u : R*]``: the current register usage and its *increase potential*,
  the number of additional registers per thread that would not lower
  ``occ*``;
- ``S*``: the dynamic shared memory per block that could still be added at
  the best configuration without lowering ``occ*``;
- ``occ*`` itself.

These are the values the static search module feeds into Orio to prune the
thread-count axis of the search space (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.codegen.compiler import CompiledModule
from repro.core.occupancy import occupancy


@dataclass(frozen=True)
class Suggestion:
    """A Table VII row."""

    gpu_name: str
    kernel: str
    regs_used: int
    """``R_u``: registers per thread reported by the compiler."""

    reg_increase: int
    """``R*``: how many more registers per thread keep ``occ*``."""

    threads: tuple
    """``T*``: thread counts achieving ``occ*``."""

    smem_headroom: int
    """``S*``: bytes of dynamic shared memory addable at best config."""

    best_occupancy: float
    """``occ*``."""

    def __str__(self) -> str:
        ts = ", ".join(str(t) for t in self.threads)
        return (
            f"{self.kernel}@{self.gpu_name}: T*=[{ts}] "
            f"[Ru:R*]=[{self.regs_used}:{self.reg_increase}] "
            f"S*={self.smem_headroom} occ*={self.best_occupancy:g}"
        )


def _thread_candidates(gpu: GPUSpec) -> list[int]:
    return list(range(32, gpu.max_threads_per_block + 1, 32))


def suggest_parameters(
    gpu: GPUSpec,
    regs_per_thread: int,
    smem_per_block: int = 0,
    kernel_name: str = "",
) -> Suggestion:
    """Compute the Table VII suggestion for one kernel on one GPU."""
    cands = _thread_candidates(gpu)
    occs = {
        t: occupancy(gpu, t, regs_per_thread, smem_per_block) for t in cands
    }
    occ_star = max(r.occupancy for r in occs.values())
    t_star = tuple(t for t in cands if occs[t].occupancy == occ_star)

    # register increase potential: raise R until occ* would drop
    r_star = 0
    for r in range(regs_per_thread + 1, gpu.max_regs_per_thread + 1):
        best = max(
            occupancy(gpu, t, r, smem_per_block).occupancy for t in t_star
        )
        if best < occ_star:
            break
        r_star = r - regs_per_thread

    # shared-memory headroom at the configuration with the most blocks
    max_blocks = max(occs[t].active_blocks for t in t_star)
    if max_blocks > 0:
        per_block = gpu.smem_per_mp_bytes // max_blocks
        s_star = max(0, min(per_block, gpu.smem_per_block_bytes)
                     - smem_per_block)
    else:
        s_star = 0

    return Suggestion(
        gpu_name=gpu.name,
        kernel=kernel_name,
        regs_used=regs_per_thread,
        reg_increase=r_star,
        threads=t_star,
        smem_headroom=s_star,
        best_occupancy=occ_star,
    )


def suggest_for_module(module: CompiledModule) -> Suggestion:
    """Table VII row for a multi-kernel benchmark.

    Launch parameters are shared across the benchmark's kernels, so the
    binding register/shared-memory usage is the maximum across kernels.
    """
    return suggest_parameters(
        module.options.gpu,
        module.regs_per_thread,
        module.static_smem_bytes,
        module.name,
    )
