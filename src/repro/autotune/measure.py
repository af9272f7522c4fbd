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

Measurement reads only a :class:`~repro.codegen.compiler.MeasuredKernel`
view of each compiled kernel.  The process keeps the views of registered
benchmarks in one bounded LRU keyed by (kernel, GPU, ``UIF``,
fast-math), so every measurer in a process -- each tune, sweep, managed
session and replay -- compiles a module only the first time the process
needs it.  Code that reads instructions (the static analyzer, lint,
disassembly, the suite's Eq. 6 profile) compiles full modules itself.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro import obs
from repro.arch.specs import GPUSpec
from repro.codegen.compiler import (
    CompiledModule,
    CompileOptions,
    MeasuredKernel,
    address_64bit,
    compile_module,
)
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
    of it.  Used for the module memo here, for shard grouping in
    :mod:`repro.engine.work` and for the per-module memo of
    :func:`repro.suite.evaluate.eq6_profile`."""
    return int(config.get("UIF", 1)), str(config.get("CFLAGS", ""))


def compile_options(gpu: GPUSpec, config: dict) -> CompileOptions:
    """What :func:`compile_module` compiles a configuration with on
    ``gpu``: its compile key as options."""
    unroll_factor, cflags = compile_config_key(config)
    return CompileOptions(
        gpu=gpu,
        unroll_factor=unroll_factor,
        fast_math="-use_fast_math" in cflags,
    )


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


_MODULE_LIMIT = 1024
"""Measurement views the process keeps.  The registry's full Table III
compile space is 536 (kernel, GPU, ``UIF``, fast-math) modules."""

_views: OrderedDict = OrderedDict()
"""LRU: ``(kernel name, CompileOptions)`` -> module of
:class:`MeasuredKernel` views, for registered benchmarks only."""

_trees: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
"""``(kernel, kernel index, UIF, fast-math, 64-bit addressing)`` -> the
region tree the cached views of that key share.  Lowering reads nothing
else, so GPUs of one address width compile equal trees; one lives only
while some cached view holds it."""

_lock = threading.Lock()
"""Guards :data:`_views` and :data:`_trees`: fleet drainers and
``asyncio.to_thread`` strategy calls measure from several threads."""


def _reset_lock() -> None:
    # a child forked while another thread held the lock would never see
    # it released
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_reset_lock)


def _compile(benchmark: Benchmark, options: CompileOptions) -> CompiledModule:
    module = compile_module(benchmark.name, list(benchmark.specs), options)
    obs.add("measure.compiles", kernel=benchmark.name)
    return module


def _cached_view(benchmark: Benchmark,
                 options: CompileOptions) -> CompiledModule:
    """The process's measurement view of a registered benchmark's module,
    compiled the first time the process needs it.

    Compiles outside the lock: two threads that miss together both
    compile, and the first to insert wins.
    """
    key = (benchmark.name, options)
    with _lock:
        view = _views.get(key)
        if view is not None:
            _views.move_to_end(key)
    if view is not None:
        obs.add("measure.module_hits", kernel=benchmark.name)
        return view
    module = _compile(benchmark, options)
    width = address_64bit(options.gpu)
    with _lock:
        view = _views.get(key)
        if view is None:
            kernels = [
                MeasuredKernel.of(ck, _trees.setdefault(
                    (benchmark.name, index, options.unroll_factor,
                     options.fast_math, width),
                    ck.root_region,
                ))
                for index, ck in enumerate(module)
            ]
            view = _views[key] = CompiledModule(
                module.name, kernels, options
            )
            while len(_views) > _MODULE_LIMIT:
                _views.popitem(last=False)
    return view


_last_rebuilt: list = [None, None]
"""``[(name, gpu, params), Measurer]``: the one measurer this process
last rebuilt from a pickle (see :func:`_rebuild`)."""


def _rebuild(name: str, gpu: GPUSpec, params: ModelParams) -> Measurer:
    """Unpickle a registered benchmark's :class:`Measurer`.

    A worker keeps only the measurer it last rebuilt, so consecutive
    shards of one ``(kernel, GPU, model)`` -- every round of a search --
    reuse its kernel views, count memos included.
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
    its module memo serves every batch measured on it.  The memo holds
    the measurer's own :class:`MeasuredKernel` objects, so the count
    memos keyed on them live and die with the measurer.  For a
    registered benchmark they share their region trees with the
    process's view cache, which compiles each module once per process;
    any other benchmark (its name does not identify its specs) is
    compiled once per measurer.
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
        """The measurement view of the module for a configuration
        (memoized by the compile-time slice of the configuration)."""
        key = compile_config_key(config)
        mod = self._modules.get(key)
        if mod is None:
            options = compile_options(self.gpu, config)
            if travels_by_name(self.benchmark):
                view = _cached_view(self.benchmark, options)
                kernels = [replace(k) for k in view]
            else:
                kernels = [MeasuredKernel.of(ck)
                           for ck in _compile(self.benchmark, options)]
            mod = CompiledModule(self.benchmark.name, kernels, options)
            self._modules[key] = mod
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
        reg_instr = 0.0  # summed left to right, like every measured float
        for ck in mod:
            reg_instr += exact_counts(ck, env, tc, bc).reg_ops
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

        Modules are compiled at most once per distinct compile key
        regardless of order (``module_for`` memoizes them for the
        measurer's lifetime).
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
