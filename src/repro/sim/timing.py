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
4. **DRAM bandwidth with a cache model.**  Transactions follow each
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.arch.specs import GPUSpec
from repro.arch.throughput import InstrCategory, PipeClass, throughput_for
from repro.codegen.ast_nodes import evaluate_expr
from repro.codegen.compiler import CompiledKernel, CompiledModule
from repro.codegen.regions import MemAccess
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


@dataclass(frozen=True)
class KernelTiming:
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


class TimingModel:
    """Timing evaluation of compiled kernels on one GPU."""

    def __init__(self, gpu: GPUSpec, params: ModelParams = DEFAULT_PARAMS):
        self.gpu = gpu
        self.params = params
        self.throughput = throughput_for(gpu)

    # -- memory traffic under the cache model ------------------------------

    def _l1_bytes(self, l1_pref_kb: int) -> float:
        fixed = self.params.l1_kb_fixed.get(self.gpu.sm_version)
        return (fixed if fixed is not None else l1_pref_kb) * 1024.0

    def _access_dram_bytes(
        self, acc: MemAccess, warp_execs: float, active_warps: float,
        l1_pref_kb: int,
    ) -> float:
        """DRAM bytes one static access contributes over the launch."""
        if acc.space is not MemSpace.GLOBAL:
            return 0.0
        elem = acc.dtype.nbytes
        if acc.pattern == "uniform":
            return warp_execs * 32.0 * self.params.uniform_l2_bytes_factor
        if acc.pattern == "coalesced":
            if acc.seq_stride == 0 and not acc.is_store and not acc.is_atomic:
                # same address every iteration (hoistable RMW load): L1-hot
                return warp_execs * 32.0 * self.params.uniform_l2_bytes_factor
            segs = max(1.0, 32.0 * elem / 32.0)  # 32-byte DRAM segments
            return warp_execs * segs * 32.0
        # strided: each lane in its own segment...
        worst_segs = 32.0
        if acc.seq_stride == 1:
            # ...but consecutive iterations reuse the line while the
            # resident working set fits in L1
            line = 128.0
            ideal_segs = 32.0 * elem / 32.0
            working = active_warps * 32.0 * line
            fit = min(1.0, self._l1_bytes(l1_pref_kb) / max(working, 1.0))
            segs = worst_segs - fit * (worst_segs - ideal_segs)
        else:
            segs = worst_segs
        return warp_execs * segs * 32.0

    def _access_chain_latency(self, acc: MemAccess) -> float:
        """Per-execution dependent-chain latency of one memory access."""
        if acc.space is not MemSpace.GLOBAL:
            return 4.0  # shared memory
        if acc.pattern == "uniform":
            return self.params.rmw_latency * 0.5  # constant-cache style hit
        if acc.seq_stride == 0 and not acc.is_store:
            return self.params.rmw_latency  # same-address reload: serial
        return self.gpu.dram_latency_cycles / self.params.mem_mlp

    # -- the model ---------------------------------------------------------

    def kernel_time(
        self,
        ck: CompiledKernel,
        launch: LaunchConfig,
        env: dict,
    ) -> KernelTiming:
        gpu = self.gpu
        p = self.params
        tc, bc = launch.tc, launch.bc

        resident = hw_resident_blocks(
            gpu, tc, ck.regs_per_thread, ck.static_smem_bytes
        )
        if resident == 0:
            return _UNLAUNCHABLE

        # parallel extent M and work spread
        if ck.parallel_extent is not None:
            m = max(0, int(evaluate_expr(ck.parallel_extent, env)))
        else:
            m = launch.total_threads
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

        # dynamic counts: thread-level (work) and warp-level (issue slots);
        # the zero-thread evaluation isolates the loop body from the
        # per-thread preamble, which runs on *every* block (idle blocks
        # execute their preamble on otherwise-idle SMs, so it must not be
        # charged to the busiest working SM)
        tcounts = exact_counts(ck, env, tc, bc, warp_level=False)
        wcounts = exact_counts(ck, env, tc, bc, warp_level=True)
        wloop = exact_counts(ck, env, 1, 0, warp_level=True)

        all_blocks_per_sm = -(-bc // min(gpu.multiprocessors, bc))
        root_frac = all_blocks_per_sm / bc

        # ---- issue cycles on the busiest SM, with block-switch churn and
        #      occupancy-dependent latency hiding
        issue = 0.0
        total_ops = max(1.0, sum(wcounts.by_category.values()))
        sfu_frac = wcounts.by_category.get(
            InstrCategory.LOG_SIN_COS, 0.0
        ) / total_ops
        for cat, n in wcounts.by_category.items():
            n_loop = wloop.by_category.get(cat, 0.0)
            n_root = max(0.0, n - n_loop)
            issue += (
                n_loop * work_frac + n_root * root_frac
            ) / self.throughput.ipc(cat)
        # "small block sizes will result in many active blocks running on
        # the SM in a time-shared manner, where unnecessary switching of
        # blocks may degrade performance" (paper Sec. III-B1): scheduler
        # churn decays as blocks get larger
        max_wpb = gpu.max_threads_per_block // gpu.warp_size
        churn = 1.0 + p.block_switch * (1.0 - warps_per_block / max_wpb)
        w_need = p.w_need_base + p.w_need_sfu * sfu_frac
        hiding = min(1.0, active_warps / w_need)
        issue *= churn / hiding

        # ---- memory traffic, atomics
        dram_bytes = 0.0
        atomic_chip = 0.0
        for acc, execs in tcounts.mem_traffic:
            warp_execs = execs / 32.0
            dram_bytes += self._access_dram_bytes(
                acc, warp_execs, active_warps, launch.l1_pref_kb
            )
            if acc.is_atomic:
                if acc.pattern == "uniform":
                    atomic_chip += execs * p.atomic_conflict_cycles
                else:
                    issue += warp_execs * work_frac * p.atomic_coalesced_cycles

        # ---- pipelined latency floor (per-thread dependent work)
        active_threads = max(1, min(launch.total_threads, max(m, 1)))
        lat_per_thread = 0.0
        for cat, n in tcounts.by_category.items():
            per = n / active_threads
            if cat.pipe is PipeClass.MEM:
                continue  # charged per-access below
            if cat in (InstrCategory.FP32, InstrCategory.FP64):
                lat_per_thread += per * p.chain_fp
            elif cat is InstrCategory.LOG_SIN_COS:
                lat_per_thread += per * p.chain_sfu
            elif cat.pipe is PipeClass.CTRL:
                lat_per_thread += per * p.chain_ctrl
            else:
                lat_per_thread += per * p.chain_alu
        for acc, execs in tcounts.mem_traffic:
            lat_per_thread += (
                execs / active_threads
            ) * self._access_chain_latency(acc)
        latency_cycles = lat_per_thread * waves

        # ---- DRAM bandwidth bound (chip-wide, ramping with queue depth)
        bw_bytes_per_cycle = gpu.peak_bandwidth_gbs * 1e9 * gpu.cycle_time_s
        eff = p.bw_floor + (1.0 - p.bw_floor) * min(
            1.0, active_warps / p.bw_ramp_warps
        )
        mem_cycles = dram_bytes / bw_bytes_per_cycle / eff + atomic_chip

        # ---- combine
        cycles = max(issue, latency_cycles, mem_cycles)
        cycles += p.block_start_cycles * blocks_per_sm
        seconds = p.launch_overhead_s + cycles * gpu.cycle_time_s
        return KernelTiming(
            seconds=seconds,
            cycles=cycles,
            issue_cycles=issue,
            latency_cycles=latency_cycles,
            mem_cycles=mem_cycles,
            dram_bytes=dram_bytes,
            occupancy=occupancy,
            active_warps=float(active_warps),
            working_blocks=working_blocks,
            waves=waves,
        )

    def benchmark_time(
        self, module: CompiledModule, launch: LaunchConfig, env: dict
    ) -> float:
        """Deterministic total seconds for all kernels of a benchmark."""
        return sum(
            self.kernel_time(ck, launch, env).seconds for ck in module
        )


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


def measure_benchmark(
    module: CompiledModule,
    launch: LaunchConfig,
    env: dict,
    params: ModelParams = DEFAULT_PARAMS,
) -> float:
    """The paper's measurement protocol (Sec. IV-A).

    Runs :data:`REPETITIONS` noisy trials and reports trial
    :data:`TRIAL_INDEX`.  Noise is lognormal with seeded,
    configuration-specific RNG so sweeps are reproducible.
    """
    base = simulate_benchmark_time(module, launch, env, params)
    if math.isinf(base):
        return base
    rng = rng_for(
        "measure", module.name, module.options.gpu.name,
        module.options.unroll_factor, module.options.fast_math,
        launch.l1_pref_kb, launch.tc, launch.bc,
        sorted(env.items()),
    )
    overhead = params.launch_overhead_s * len(module.kernels)
    sigma = params.noise_sigma + params.short_run_sigma * min(
        1.0, overhead / base
    )
    trials = base * rng.lognormal(mean=0.0, sigma=sigma, size=REPETITIONS)
    return float(trials[TRIAL_INDEX])
