"""Analytic GPU timing model -- the "hardware" the autotuner measures on.

For one kernel launch the model combines the first-order mechanisms the
paper reasons about qualitatively:

1. **Work distribution / spread.**  Grid-stride kernels only put work in
   the first ``ceil(M / TC)`` blocks when the parallel extent ``M`` is
   smaller than the grid.  For the row-parallel kernels (atax, BiCG:
   M = N <= 512) a large ``TC`` concentrates all work on one or two SMs --
   the mechanism behind their preference for the *lower* thread ranges.
2. **Issue throughput with block-switching overhead.**  The busiest SM
   issues its warps' instructions at the Table II category IPCs; divergent
   branches pay for both arms (warp-level counts); many small resident
   blocks add scheduler churn ("unnecessary switching of blocks may degrade
   performance" -- paper Sec. III-B1), which is what tilts the
   compute-dense kernels (matVec2D, ex14FJ) toward *larger* blocks.
3. **Pipelined latency floor.**  Dependent per-thread work (accumulator
   chains, SFU chains, outstanding-load limits) bounds execution below,
   independent of spread; it flattens the low-TC end for the small-M
   kernels.
4. **DRAM bandwidth with a cache model.**  DRAM segments follow each
   access's coalescing pattern; strided accesses with sequential line reuse
   (the row-walk in atax/BiCG) keep their lines only while the resident
   working set fits in L1 -- more warps, more thrash.  The Orio ``PL``
   parameter sets the L1 split on Fermi/Kepler.  Bandwidth utilization
   itself needs queue depth: effective bandwidth ramps with resident warps.
5. **Atomic serialization.**  Same-address atomics serialize chip-wide;
   spread-out atomics are absorbed by the L2 banks.
6. **Wave quantization and fixed launch/block overheads.**

The model is deterministic; :func:`measure_benchmark` adds seeded lognormal
noise and applies the paper's measurement protocol (Sec. IV-A: ten
repetitions, take the fifth trial).

The model is "plan, then launch".  A :class:`TimingPlan` holds what no
launch of a module on one env changes: per kernel (:class:`KernelPlan`)
its resources, parallel extent and count forms
(:class:`~repro.codegen.regions.CountForm`), the T = 0 warp counts with
their IPCs, the chain weights and the per-access terms; per module its
resources and the noise scope's text.  A launch then does only the
arithmetic ``TC``, ``BC`` and ``PL`` set.  The per-access terms are the
model's only account of memory traffic.  Every float sum is a left-to-right
``+=`` fold, over categories in their declaration order, never
``sum()``: Python 3.12 made ``sum()`` over floats compensated, which
would tie the last bits of a measurement to the interpreter version.
So a measurement depends neither on the interpreter nor on the
string-hash seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.arch.specs import GPUSpec
from repro.arch.throughput import THROUGHPUT_BY_SM, InstrCategory, PipeClass
from repro.codegen.ast_nodes import evaluate_expr
from repro.codegen.compiler import CompiledKernel, CompiledModule
from repro.codegen.regions import ACCESSES, ORDINAL, CountForm, MemAccess
from repro.ptx.isa import MemSpace
from repro.sim.counting import exact_counts
from repro.sim.occupancy_hw import hw_resident_blocks
from repro.util.rng import rng_for


@dataclass(frozen=True)
class LaunchConfig:
    """A kernel launch configuration (the runtime slice of Table III)."""

    tc: int
    """Threads per block (Orio ``TC``)."""

    bc: int
    """Blocks in the grid (Orio ``BC``)."""

    l1_pref_kb: int = 16
    """Preferred L1 size in KB (Orio ``PL``): the cache config CUDA sets
    at launch (``cudaFuncSetCacheConfig``).  Only the cache model reads
    it, and only Fermi/Kepler honour it."""

    def __post_init__(self):
        if self.tc <= 0 or self.bc <= 0:
            raise ValueError("tc and bc must be positive")
        if self.l1_pref_kb not in (16, 48):
            raise ValueError("l1_pref_kb must be 16 or 48")

    @property
    def total_threads(self) -> int:
        return self.tc * self.bc


@dataclass(frozen=True)
class ModelParams:
    """Calibration constants of the timing model."""

    # pipelined latency floor: per-instruction dependent-chain costs
    chain_fp: float = 9.0
    chain_alu: float = 2.5
    chain_sfu: float = 40.0
    chain_ctrl: float = 2.0
    mem_mlp: float = 16.0
    """Outstanding loads per thread (memory-level parallelism) dividing the
    DRAM latency on the per-thread chain."""

    rmw_latency: float = 30.0
    """Serial latency of a same-address load inside a loop (naive
    read-modify-write updates: hits L1 but serializes)."""

    block_switch: float = 0.55
    """Relative issue slowdown at maximum resident-block churn."""

    w_need_base: float = 6.0
    w_need_sfu: float = 280.0
    """Warps needed to keep issue busy: base + sfu * (SFU fraction of the
    instruction stream).  Special-function chains (integer div/mod, exp)
    have long latencies, so SFU-dense kernels need high occupancy -- the
    paper's "compute-intensive kernels perform well with larger block
    sizes" observation."""

    bw_ramp_warps: float = 24.0
    bw_floor: float = 0.55
    """Effective DRAM bandwidth = peak * (floor + (1-floor) * min(1, W/ramp))."""

    atomic_conflict_cycles: float = 2.0
    """Chip-wide cycles per same-address atomic operation."""

    atomic_coalesced_cycles: float = 1.0
    """Extra issue cycles per warp for conflict-free atomics."""

    uniform_l2_bytes_factor: float = 0.04
    """Fraction of uniform-access bytes that actually reach DRAM."""

    launch_overhead_s: float = 4.0e-6
    block_start_cycles: float = 220.0
    noise_sigma: float = 0.03
    short_run_sigma: float = 0.30
    """Extra relative noise for runs dominated by launch overhead: real
    measurements of microsecond kernels are jitter-dominated, so sub-10us
    variants rank mostly by luck (as on real hardware)."""

    l1_kb_fixed: dict = field(default_factory=lambda: {52: 48, 60: 64})
    """Maxwell/Pascal have fixed L1/tex capacity; Fermi/Kepler honour PL."""


DEFAULT_PARAMS = ModelParams()


class KernelTiming(NamedTuple):
    """Timing breakdown for one kernel launch."""

    seconds: float
    cycles: float
    issue_cycles: float
    latency_cycles: float
    mem_cycles: float
    dram_bytes: float
    occupancy: float
    active_warps: float
    working_blocks: int
    waves: int
    unlaunchable: bool = False


_UNLAUNCHABLE = KernelTiming(
    seconds=float("inf"), cycles=float("inf"), issue_cycles=0.0,
    latency_cycles=0.0, mem_cycles=0.0, dram_bytes=0.0, occupancy=0.0,
    active_warps=0.0, working_blocks=0, waves=0, unlaunchable=True,
)


_IPC_BY_SM = {
    sm: tuple(table.ipc(cat) for cat in InstrCategory)
    for sm, table in THROUGHPUT_BY_SM.items()
}
"""Table II IPCs per SM version, indexed by category ordinal."""


def _chain_kind(cat: InstrCategory) -> int | None:
    if cat.pipe is PipeClass.MEM:
        return None  # charged per access
    if cat in (InstrCategory.FP32, InstrCategory.FP64):
        return 0
    if cat is InstrCategory.LOG_SIN_COS:
        return 1
    if cat.pipe is PipeClass.CTRL:
        return 2
    return 3


_CHAIN_KIND = tuple(_chain_kind(cat) for cat in InstrCategory)
"""Per category ordinal: its dependent-chain weight as an index into
``(chain_fp, chain_sfu, chain_ctrl, chain_alu)``, or None for memory
instructions."""

_SFU = ORDINAL[InstrCategory.LOG_SIN_COS]

# how an access's DRAM bytes are charged
_NO_DRAM, _L2, _SEGMENTS, _REUSE = range(4)
# its per-execution dependent-chain latency
_SHARED, _CONST_HIT, _RELOAD, _DRAM = range(4)
# how an atomic access is serialized
_NOT_ATOMIC, _CHIP, _ISSUE = range(3)


def _access_terms(acc: MemAccess) -> tuple:
    """``(DRAM rule, segments, chain kind, atomic rule)`` of one static
    access, which :meth:`TimingModel.launch` charges.

    ``_L2`` charges a fraction of the warp's bytes, ``_SEGMENTS``
    charges ``segments`` 32-byte DRAM segments per warp execution, and
    ``_REUSE`` charges between 32 segments and the ideal ``segments`` as
    the resident working set fits in L1.
    """
    if not acc.is_atomic:
        atomic = _NOT_ATOMIC
    elif acc.pattern == "uniform":
        atomic = _CHIP  # same-address atomics serialize chip-wide
    else:
        atomic = _ISSUE
    if acc.space is not MemSpace.GLOBAL:
        return _NO_DRAM, 0.0, _SHARED, atomic
    elem = acc.dtype.nbytes
    if acc.pattern == "uniform":
        dram, segs = _L2, 0.0
    elif acc.pattern == "coalesced":
        if acc.seq_stride == 0 and not acc.is_store and not acc.is_atomic:
            # same address every iteration (hoistable RMW load): L1-hot
            dram, segs = _L2, 0.0
        else:
            dram, segs = _SEGMENTS, max(1.0, 32.0 * elem / 32.0)
    elif acc.seq_stride == 1:
        # strided, but consecutive iterations reuse the line while it
        # survives in L1
        dram, segs = _REUSE, 32.0 * elem / 32.0
    else:
        # strided: each lane in its own segment
        dram, segs = _SEGMENTS, 32.0
    if acc.pattern == "uniform":
        chain = _CONST_HIT
    elif acc.seq_stride == 0 and not acc.is_store:
        chain = _RELOAD  # same-address reload: serial
    else:
        chain = _DRAM
    return dram, segs, chain, atomic


class KernelPlan(NamedTuple):
    """What every launch of one kernel on one env shares."""

    regs_per_thread: int
    static_smem_bytes: int
    m: int | None
    """The parallel extent, or None: the launch's thread count."""
    thread: CountForm
    """Thread-level counts (work)."""
    warp: CountForm
    """Warp-level counts (issue slots)."""
    issue: tuple
    """Per category of ``warp``, in its order: ``(ordinal, warp count at
    T = 0, IPC)``."""
    chains: tuple
    """Per category of ``thread`` on a dependent chain, in its order:
    ``(ordinal, chain weight)``."""
    accesses: tuple
    """Per access: ``(vector index, DRAM rule, segments, chain weight,
    atomic rule)``."""


class TimingPlan(NamedTuple):
    """What every launch of one module on one env shares: a
    :class:`KernelPlan` per kernel, the module's resources and the
    noise scope.  Built by :meth:`TimingModel.plan`; a launch only reads
    it."""

    model: TimingModel
    kernels: tuple
    regs_per_thread: int
    static_smem_bytes: int
    scope: tuple
    """The noise scope's parts before the launch's."""
    env_text: str
    """The noise scope's last part: the env as
    :func:`~repro.util.rng.rng_for` writes ``sorted(env.items())``."""

    def seconds(self, launch: LaunchConfig) -> float:
        """Deterministic total seconds of the module's kernels, summed
        left to right."""
        total = 0.0
        for k in self.kernels:
            total += self.model.launch(k, launch).seconds
        return total


class TimingModel:
    """Timing evaluation of compiled kernels on one GPU: a plan per
    kernel or module and env, then each launch's arithmetic."""

    def __init__(self, gpu: GPUSpec, params: ModelParams = DEFAULT_PARAMS):
        self.gpu = gpu
        self.params = params
        self.ipc = _IPC_BY_SM[gpu.sm_version]
        self.max_wpb = gpu.max_threads_per_block // gpu.warp_size
        self.cycle_time_s = gpu.cycle_time_s
        self.bw_bytes_per_cycle = (gpu.peak_bandwidth_gbs * 1e9
                                   * gpu.cycle_time_s)

    # -- plans ---------------------------------------------------------------

    def kernel_plan(self, ck: CompiledKernel, env: dict) -> KernelPlan:
        """What every launch of ``ck`` on ``env`` shares."""
        p = self.params
        if ck.parallel_extent is not None:
            m = max(0, int(evaluate_expr(ck.parallel_extent, env)))
        else:
            m = None
        # dynamic counts: thread-level (work) and warp-level (issue slots);
        # the zero-thread warp counts (the form's base) isolate the loop
        # body from the per-thread preamble, which runs on *every* block
        # (idle blocks execute their preamble on otherwise-idle SMs, so it
        # must not be charged to the busiest working SM)
        tf = exact_counts(ck, env, 0, 0, warp_level=False).form
        wf = exact_counts(ck, env, 0, 0, warp_level=True).form
        wbase, wslope = wf.base, wf.slope
        chain = (p.chain_fp, p.chain_sfu, p.chain_ctrl, p.chain_alu)
        # indexed by _SHARED, _CONST_HIT, _RELOAD and _DRAM
        access_chain = (4.0, p.rmw_latency * 0.5, p.rmw_latency,
                        self.gpu.dram_latency_cycles / p.mem_mlp)
        return KernelPlan(
            ck.regs_per_thread,
            ck.static_smem_bytes,
            m,
            tf,
            wf,
            issue=tuple((i, wbase[i] + 0 * wslope[i], self.ipc[i])
                        for i in wf.order),
            chains=tuple((i, chain[_CHAIN_KIND[i]]) for i in tf.order
                         if _CHAIN_KIND[i] is not None),
            accesses=tuple(
                (i, rule, segs, access_chain[kind], atomic)
                for i, (rule, segs, kind, atomic) in enumerate(
                    map(_access_terms, tf.accesses), ACCESSES)
            ),
        )

    def plan(self, module: CompiledModule, env: dict) -> TimingPlan:
        """What every launch of ``module`` on ``env`` shares."""
        options = module.options
        return TimingPlan(
            self,
            tuple(self.kernel_plan(ck, env) for ck in module),
            module.regs_per_thread,
            module.static_smem_bytes,
            ("measure", module.name, options.gpu.name,
             options.unroll_factor, options.fast_math),
            str(sorted(env.items())),
        )

    # -- the model ---------------------------------------------------------

    def launch(self, k: KernelPlan, launch: LaunchConfig) -> KernelTiming:
        """One launch of a planned kernel."""
        gpu = self.gpu
        p = self.params
        tc, bc = launch.tc, launch.bc

        resident = hw_resident_blocks(
            gpu, tc, k.regs_per_thread, k.static_smem_bytes
        )
        if resident == 0:
            return _UNLAUNCHABLE

        # parallel extent M and work spread
        t = tc * bc
        m = t if k.m is None else k.m
        working_blocks = max(1, min(bc, -(-m // tc))) if m else 1
        warps_per_block = gpu.warps_per_block(tc)
        sms_used = min(gpu.multiprocessors, working_blocks)
        blocks_per_sm = -(-working_blocks // sms_used)
        active_blocks = min(resident, blocks_per_sm)
        waves = -(-blocks_per_sm // resident)
        active_warps = active_blocks * warps_per_block
        occupancy = min(
            1.0,
            active_warps * gpu.warp_size / gpu.max_threads_per_mp,
        )
        work_frac = blocks_per_sm / working_blocks

        all_blocks_per_sm = -(-bc // min(gpu.multiprocessors, bc))
        root_frac = all_blocks_per_sm / bc

        # dynamic counts at T = t threads: thread-level (work) and
        # warp-level (issue slots)
        tbase, tslope = k.thread.base, k.thread.slope
        wbase, wslope = k.warp.base, k.warp.slope

        # ---- issue cycles on the busiest SM, with block-switch churn and
        #      occupancy-dependent latency hiding
        issue = 0.0
        total_ops = 0.0
        for i, n_loop, ipc in k.issue:
            n = wbase[i] + t * wslope[i]
            total_ops += n
            issue += (n_loop * work_frac
                      + max(0.0, n - n_loop) * root_frac) / ipc
        total_ops = max(1.0, total_ops)
        sfu_frac = (wbase[_SFU] + t * wslope[_SFU]) / total_ops
        # "small block sizes will result in many active blocks running on
        # the SM in a time-shared manner, where unnecessary switching of
        # blocks may degrade performance" (paper Sec. III-B1): scheduler
        # churn decays as blocks get larger
        churn = 1.0 + p.block_switch * (1.0 - warps_per_block / self.max_wpb)
        w_need = p.w_need_base + p.w_need_sfu * sfu_frac
        hiding = min(1.0, active_warps / w_need)
        issue *= churn / hiding

        # ---- pipelined latency floor (per-thread dependent work)
        active_threads = max(1, min(t, max(m, 1)))
        lat_per_thread = 0.0
        for i, weight in k.chains:
            lat_per_thread += ((tbase[i] + t * tslope[i])
                               / active_threads) * weight

        # ---- memory traffic under the cache model, atomics, and each
        #      access's dependent chain
        dram_bytes = 0.0
        atomic_chip = 0.0
        fit = None
        for i, rule, segs, weight, atomic in k.accesses:
            execs = tbase[i] + t * tslope[i]
            warp_execs = execs / 32.0
            if rule == _L2:
                dram_bytes += warp_execs * 32.0 * p.uniform_l2_bytes_factor
            elif rule == _SEGMENTS:
                dram_bytes += warp_execs * segs * 32.0
            elif rule == _REUSE:
                # consecutive iterations reuse a 128-byte line while the
                # resident working set fits in L1
                if fit is None:
                    fixed = p.l1_kb_fixed.get(gpu.sm_version)
                    l1_kb = fixed if fixed is not None else launch.l1_pref_kb
                    working = active_warps * 32.0 * 128.0
                    fit = min(1.0, l1_kb * 1024.0 / max(working, 1.0))
                dram_bytes += warp_execs * (32.0 - fit * (32.0 - segs)) * 32.0
            if atomic == _CHIP:
                atomic_chip += execs * p.atomic_conflict_cycles
            elif atomic == _ISSUE:
                issue += warp_execs * work_frac * p.atomic_coalesced_cycles
            lat_per_thread += (execs / active_threads) * weight
        latency_cycles = lat_per_thread * waves

        # ---- DRAM bandwidth bound (chip-wide, ramping with queue depth)
        eff = p.bw_floor + (1.0 - p.bw_floor) * min(
            1.0, active_warps / p.bw_ramp_warps
        )
        mem_cycles = dram_bytes / self.bw_bytes_per_cycle / eff + atomic_chip

        # ---- combine
        cycles = max(issue, latency_cycles, mem_cycles)
        cycles += p.block_start_cycles * blocks_per_sm
        seconds = p.launch_overhead_s + cycles * self.cycle_time_s
        return KernelTiming(
            seconds,
            cycles,
            issue,
            latency_cycles,
            mem_cycles,
            dram_bytes,
            occupancy,
            float(active_warps),
            working_blocks,
            waves,
        )

    def kernel_time(
        self,
        ck: CompiledKernel,
        launch: LaunchConfig,
        env: dict,
    ) -> KernelTiming:
        return self.launch(self.kernel_plan(ck, env), launch)

    def benchmark_time(
        self, module: CompiledModule, launch: LaunchConfig, env: dict
    ) -> float:
        """Deterministic total seconds for all kernels of a benchmark,
        summed left to right."""
        return self.plan(module, env).seconds(launch)


def simulate_benchmark_time(
    module: CompiledModule,
    launch: LaunchConfig,
    env: dict,
    params: ModelParams = DEFAULT_PARAMS,
) -> float:
    """Convenience: deterministic benchmark time on the module's GPU."""
    return TimingModel(module.options.gpu, params).benchmark_time(
        module, launch, env
    )


REPETITIONS = 10
"""Noisy trials per measurement (the paper's protocol, Sec. IV-A)."""

TRIAL_INDEX = 4
"""The reported trial, zero-based: the paper selects "the fifth overall
trial"."""


def measure_benchmark(plan: TimingPlan, launch: LaunchConfig) -> float:
    """The paper's measurement protocol (Sec. IV-A), for one launch of a
    planned module.

    Runs :data:`REPETITIONS` noisy trials and reports trial
    :data:`TRIAL_INDEX`.  Noise is lognormal with seeded,
    configuration-specific RNG so sweeps are reproducible.
    """
    base = plan.seconds(launch)
    if math.isinf(base):
        return base
    params = plan.model.params
    rng = rng_for(*plan.scope, launch.l1_pref_kb, launch.tc, launch.bc,
                  plan.env_text)
    overhead = params.launch_overhead_s * len(plan.kernels)
    sigma = params.noise_sigma + params.short_run_sigma * min(
        1.0, overhead / base
    )
    trials = base * rng.lognormal(mean=0.0, sigma=sigma, size=REPETITIONS)
    return float(trials[TRIAL_INDEX])
