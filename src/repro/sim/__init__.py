"""The GPU substrate: functional emulation, exact counting, timing.

Three cooperating models replace the paper's physical GPUs:

- :mod:`repro.sim.emulator` -- a warp-level SIMT *functional* emulator with
  a reconvergence stack.  Executes compiled kernels on NumPy-backed device
  memory, validates codegen against the NumPy references, and produces
  ground-truth dynamic instruction counts (used at small sizes and by the
  Fig. 1 divergence experiment).
- :mod:`repro.sim.counting` -- closed-form *exact* dynamic counts from the
  compiler's region tree (grid-stride trip counts, vectorized branch-
  condition evaluation over iteration domains).  Agrees with the emulator
  (tested); its tree walk does not depend on problem size and each
  O(domain) branch-condition pass runs once per (guard, domain, env) per
  process.  Counts are affine in the thread count, so each (kernel, env,
  count level) keeps one form, read at every launch.  This is the
  "dynamic truth" for Table VI and the input to the timing model.
- :mod:`repro.sim.timing` -- the analytic performance model that plays the
  role of running on hardware: occupancy-driven latency hiding, Table II
  issue throughput, DRAM bandwidth with cache/coalescing effects, atomic
  serialization, wave quantization, and seeded measurement noise.
"""

from repro.sim.memory import DeviceMemory, DeviceAllocation, MemoryError_
from repro.sim.emulator import (
    EMU_MODES,
    EmulationResult,
    LaunchProfile,
    emulate_kernel,
    emulation_mode,
    run_benchmark_emulated,
)
from repro.sim.vector import has_global_atomics, run_stacked
from repro.sim.counting import (
    exact_counts,
    exact_branch_fraction,
    validate_against_emulation,
    warp_branch_fraction,
)
from repro.sim.occupancy_hw import hw_resident_blocks, hw_occupancy
from repro.sim.timing import (
    TimingModel,
    KernelTiming,
    LaunchConfig,
    ModelParams,
    DEFAULT_PARAMS,
    simulate_benchmark_time,
    measure_benchmark,
)

__all__ = [
    "DeviceMemory",
    "DeviceAllocation",
    "MemoryError_",
    "EMU_MODES",
    "EmulationResult",
    "LaunchProfile",
    "emulate_kernel",
    "emulation_mode",
    "run_benchmark_emulated",
    "has_global_atomics",
    "run_stacked",
    "exact_counts",
    "exact_branch_fraction",
    "validate_against_emulation",
    "warp_branch_fraction",
    "hw_resident_blocks",
    "hw_occupancy",
    "TimingModel",
    "KernelTiming",
    "LaunchConfig",
    "ModelParams",
    "DEFAULT_PARAMS",
    "simulate_benchmark_time",
    "measure_benchmark",
]
