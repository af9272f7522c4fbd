"""Variant generation and measurement.

``Measurer`` turns a tuning configuration (one point of the Table III
space) into a compiled code variant -- recompiling only when compile-time
parameters (``UIF``, ``CFLAGS``) change -- and measures it on the
simulated GPU with the paper's protocol (ten repetitions, fifth trial)
at the launch the rest of the configuration sets (``TC``, ``BC`` and
the L1 preference ``PL``).
Static metrics for the variant (occupancy, register usage, dynamic
register-instruction counts) are recorded alongside the time, which is
what the Table V statistics are built from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.arch.specs import GPUSpec
from repro.codegen.compiler import CompiledModule, CompileOptions, compile_module
from repro.kernels.base import Benchmark
from repro.sim.counting import exact_counts
from repro.sim.occupancy_hw import hw_occupancy
from repro.sim.timing import (
    DEFAULT_PARAMS,
    LaunchConfig,
    ModelParams,
    measure_benchmark,
)


def compile_config_key(config: dict) -> tuple:
    """The compile-time slice of a configuration (``UIF``, ``CFLAGS``):
    exactly what :func:`compile_module` reads, so variants sharing it
    share one compiled module.  ``PL`` is a launch setting and not part
    of it.  Used for the module cache here, for shard grouping in
    :mod:`repro.engine.work` and for the per-module memo of
    :func:`repro.suite.evaluate.eq6_profile`."""
    return int(config.get("UIF", 1)), str(config.get("CFLAGS", ""))


class MeasurementError(RuntimeError):
    """A batch measurement failed at a specific ``(config, size)`` point.

    Raised by :meth:`Measurer.measure_many` (the sweep-engine shard
    path) so a shard failure names the exact work point that caused it
    -- the engine's :class:`~repro.engine.resilience.ShardFailure`
    records carry this message verbatim.
    """

    def __init__(self, config: dict, size: int, cause: BaseException):
        super().__init__(
            f"measuring config {dict(config)} at size {size} failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.config = dict(config)
        self.size = size


@dataclass(frozen=True)
class VariantMeasurement:
    """One measured code variant."""

    config: dict
    size: int
    seconds: float
    occupancy: float
    regs_per_thread: int
    reg_instructions: float
    """Dynamic register-operand traffic (the Table V 'Register
    Instructions' statistic)."""

    @property
    def launchable(self) -> bool:
        return self.seconds != float("inf")


def travels_by_name(benchmark: Benchmark) -> bool:
    """Whether ``benchmark`` is the registered one of its name.

    Benchmarks hold closures, which do not pickle, so only a registered
    benchmark can cross into a worker process -- by name, resolved
    there.  The engine shards only these across workers; anything else
    (a modified copy, an unregistered benchmark) is measured inline.
    """
    from repro.kernels import BENCHMARKS

    return BENCHMARKS.get(benchmark.name) is benchmark


_last_rebuilt: list = [None, None]
"""``[(name, gpu, params), Measurer]``: the one measurer this process
last rebuilt from a pickle (see :func:`_rebuild`)."""


def _rebuild(name: str, gpu: GPUSpec, params: ModelParams) -> Measurer:
    """Unpickle a registered benchmark's :class:`Measurer`.

    A worker keeps only the measurer it last rebuilt, so consecutive
    shards of one ``(kernel, GPU, model)`` -- every round of a search --
    reuse its compiled modules instead of compiling them again.
    """
    key = (name, gpu, params)
    if _last_rebuilt[0] != key:
        from repro.kernels import get_benchmark

        _last_rebuilt[:] = [key, Measurer(get_benchmark(name), gpu, params)]
    return _last_rebuilt[1]


class Measurer:
    """Compiles and measures variants of one benchmark on one GPU.

    The one measurement context: the sweep engine, its worker pool and
    the service fleet all carry a measurer rather than its fields, and
    its module memo serves every batch measured on it.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        gpu: GPUSpec,
        params: ModelParams = DEFAULT_PARAMS,
    ):
        self.benchmark = benchmark
        self.gpu = gpu
        self.params = params
        self._modules: dict[tuple, CompiledModule] = {}

    def __reduce__(self):
        # the module memo stays behind; a registered benchmark travels
        # by name (see travels_by_name)
        if travels_by_name(self.benchmark):
            return _rebuild, (self.benchmark.name, self.gpu, self.params)
        return Measurer, (self.benchmark, self.gpu, self.params)

    def module_for(self, config: dict) -> CompiledModule:
        """The compiled module for a configuration (cached by the
        compile-time slice of the configuration)."""
        key = compile_config_key(config)
        mod = self._modules.get(key)
        if mod is None:
            unroll_factor, cflags = key
            options = CompileOptions(
                gpu=self.gpu,
                unroll_factor=unroll_factor,
                fast_math="-use_fast_math" in cflags,
            )
            mod = compile_module(
                self.benchmark.name, list(self.benchmark.specs), options
            )
            self._modules[key] = mod
            obs.add("measure.compiles", kernel=self.benchmark.name)
        return mod

    def measure(self, config: dict, size: int) -> VariantMeasurement:
        """Measure one variant at one input size."""
        mod = self.module_for(config)
        env = self.benchmark.param_env(size)
        tc = int(config["TC"])
        bc = int(config["BC"])
        launch = LaunchConfig(tc, bc, l1_pref_kb=int(config.get("PL", 16)))

        seconds = measure_benchmark(mod, launch, env, params=self.params)
        occ = hw_occupancy(
            self.gpu, tc, mod.regs_per_thread, mod.static_smem_bytes
        )
        reg_instr = sum(
            exact_counts(ck, env, tc, bc).reg_ops for ck in mod
        )
        return VariantMeasurement(
            config=dict(config),
            size=size,
            seconds=seconds,
            occupancy=occ,
            regs_per_thread=mod.regs_per_thread,
            reg_instructions=reg_instr,
        )

    def measure_many(self, items) -> list[VariantMeasurement]:
        """Measure a batch of ``(config, size)`` pairs, in input order.

        Modules are compiled once per distinct compile key regardless of
        order (``module_for`` memoizes them for the measurer's lifetime).
        This is the unit of work a sweep-engine shard runs, so a failure
        is wrapped in :class:`MeasurementError` to pin the exact point
        that caused it.
        """
        out = []
        for config, size in items:
            try:
                out.append(self.measure(config, size))
            except (KeyboardInterrupt, SystemExit, MeasurementError):
                raise
            except Exception as e:
                obs.add("measure.errors", kernel=self.benchmark.name)
                raise MeasurementError(config, size, e) from e
        return out


class BatchObjective:
    """The objective the tuner hands to the search strategies.

    Each ask/tell batch (``batch(configs)``) runs through ``engine`` on
    the tuner's :class:`Measurer` -- sharded across worker processes and
    served from the persistent cache when the engine has them, inline
    otherwise -- and every measurement lands in ``results`` in
    evaluation order, so results are identical at any ``jobs`` setting.
    """

    def __init__(self, engine, measurer: Measurer, size: int, results):
        self.engine = engine
        self.measurer = measurer
        self.size = size
        self.results = results

    def batch(self, configs: list) -> list[float]:
        measurements = self.engine.run(
            self.measurer, [(config, self.size) for config in configs]
        )
        failures = self.engine.last_failures
        if failures:
            # a search cannot go on from a partial batch
            raise RuntimeError(
                f"{len(failures)} point(s) quarantined after retry "
                f"exhaustion; first: {failures[0].attempts[-1].error}"
            )
        for m in measurements:
            self.results.add(m)
        return [m.seconds for m in measurements]
