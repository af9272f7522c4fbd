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

A measurer plans each (compile key, size) once: the module's
:class:`~repro.sim.timing.TimingPlan` at that size's env, plus each
kernel's register-operand form.  A point then does only its launch
arithmetic, its seeded noise draw and its :class:`VariantMeasurement`.

Measurement reads only a :class:`~repro.codegen.compiler.MeasuredKernel`
view of each compiled kernel.  The process keeps every benchmark's views
in one memo keyed by (kernel, its specs, GPU, ``UIF``, fast-math), and
the GPU-free part of each kernel's view in another keyed by (kernel
spec, ``UIF``, fast-math, address width).  So every measurer in a
process -- each tune, sweep, managed session and replay, of a registered
benchmark or any other -- compiles a module only the first time the
process needs it at an address width: K20, M40 and P100 share one
verified compile, each with its own register report.  Each region tree
is counted only the first time too
(:data:`repro.sim.counting._count_cache`).  Static readers that read no
instructions (``T*`` and the static mix: static search, Tables VI and
VII, the suite's Eq. 6 profile) take views too, so they compile nothing
a measurement does not.  Only code that reads instructions (the
emulator, the divergence and CFG analyses, lint, disassembly) compiles
full modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro import obs
from repro.arch.specs import GPUSpec
from repro.codegen.compiler import (
    CompiledModule,
    CompileOptions,
    MeasuredKernel,
    address_64bit,
    compile_module,
    register_report,
)
from repro.codegen.regions import REG_OPS, Region
from repro.kernels.base import Benchmark
from repro.ptx.verifier import check_register_budget
from repro.sim.counting import exact_counts
from repro.sim.occupancy_hw import hw_occupancy
from repro.sim.timing import (
    DEFAULT_PARAMS,
    LaunchConfig,
    ModelParams,
    TimingModel,
    TimingPlan,
    measure_benchmark,
)
from repro.util.memo import Memo, register


def compile_config_key(config: dict) -> tuple:
    """The compile-time slice of a configuration (``UIF``, ``CFLAGS``):
    exactly what :func:`compile_module` reads, so variants sharing it
    share one compiled module.  ``PL`` is a launch setting and not part
    of it.  Used for the plan memo here, for shard grouping in
    :mod:`repro.engine.work` and for the per-(module, size) costs of
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


_views = register(Memo(1024))
"""Memo: (kernel name, id of its specs, ``CompileOptions``) -> (specs,
module of :class:`MeasuredKernel` views).  The name is part of the key
because it names the module; the specs are keyed by id, so a copy that
shares them shares the view, and held by the entry, which keeps the id
from being reused while the entry lives.  The registered benchmarks'
full Table III compile space is 536 (kernel, GPU, ``UIF``, fast-math)
modules."""


class _Kernel(NamedTuple):
    """What the views of one kernel share on every GPU of an address
    width: all but the register count, which each GPU derives from
    ``slots`` (:func:`~repro.codegen.compiler.register_report`)."""

    name: str
    slots: int
    static_smem_bytes: int
    root_region: Region
    parallel_extent: object


_kernels = register(Memo(1024))
"""Memo: ``(kernel spec, UIF, fast-math, 64-bit addressing)`` -> the
:class:`_Kernel` its views share.  Lowering reads nothing else and
register allocation reads only the lowered code, so GPUs of one address
width compile kernels that differ only in their register report: the
views of K20, M40 and P100 share one compile, and so do equal specs of
different benchmarks, with one region tree and so one set of count
forms."""


def _view(benchmark: Benchmark, options: CompileOptions) -> CompiledModule:
    """The process's measurement view of ``benchmark`` compiled with
    ``options``.

    The first GPU of an address width to need a module compiles it;
    every other GPU of that width builds its view from that verified
    compile's :data:`_kernels` entries and applies only its own register
    reservation, clamp and budget check, the one verifier check that
    reads the GPU.
    """
    specs = benchmark.specs
    key = (benchmark.name, id(specs), options)
    entry = _views.get(key)
    if entry is not None:
        obs.add("measure.module_hits", kernel=benchmark.name)
        return entry[1]
    width = address_64bit(options.gpu)
    keys = [(spec, options.unroll_factor, options.fast_math, width)
            for spec in specs]
    kernels = [_kernels.get(k) for k in keys]
    if None in kernels:
        module = compile_module(benchmark.name, list(specs), options)
        obs.add("measure.compiles", kernel=benchmark.name)
        # an entry already there stays, so equal specs share one tree
        kernels = [
            _kernels.put(k, _Kernel(
                ck.name, ck.register_slots, ck.static_smem_bytes,
                ck.root_region, ck.parallel_extent,
            ))
            for k, ck in zip(keys, module)
        ]
    views = []
    for k in kernels:
        regs, _ = register_report(k.slots, options.gpu)
        check_register_budget(k.name, k.slots, regs)
        views.append(MeasuredKernel(
            k.name, regs, k.static_smem_bytes, k.root_region,
            k.parallel_extent, options,
        ))
    view = CompiledModule(benchmark.name, views, options)
    return _views.put(key, (specs, view))[1]


class _Plan(NamedTuple):
    """What every launch of one module at one size shares."""

    timing: TimingPlan
    reg_ops: tuple
    """Per kernel, the register-operand traffic's ``(base, slope)`` in
    the launched thread count."""


def _rebuild(name: str, gpu: GPUSpec, params: ModelParams) -> Measurer:
    """Unpickle a registered benchmark's :class:`Measurer`: a fresh one,
    whose modules and count forms come from the process's caches."""
    from repro.kernels import get_benchmark

    return Measurer(get_benchmark(name), gpu, params)


class Measurer:
    """Compiles and measures variants of one benchmark on one GPU.

    The one measurement context: the sweep engine, its worker pool and
    the service fleet all carry a measurer rather than its fields.  Its
    modules are the process's views (:func:`_view`), so each compiles
    once per process and address width, registered benchmark or not,
    and its count forms are the process's too
    (:func:`~repro.sim.counting.exact_counts`); only the plans built
    from them are the measurer's.
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
        self._plans: dict[tuple, _Plan] = {}
        self._occupancy: dict[tuple, float] = {}

    def __reduce__(self):
        # the plan and occupancy memos stay behind; a registered
        # benchmark travels by name (see travels_by_name)
        if travels_by_name(self.benchmark):
            return _rebuild, (self.benchmark.name, self.gpu, self.params)
        return Measurer, (self.benchmark, self.gpu, self.params)

    def module_for(self, config: dict) -> CompiledModule:
        """The measurement view of the module for a configuration: the
        process's view at its compile options."""
        return _view(self.benchmark, compile_options(self.gpu, config))

    def _plan_for(self, config: dict, size: int) -> _Plan:
        """What every launch of a configuration's module at ``size``
        shares (memoized by compile key and size; a plan that fails to
        build is not kept)."""
        key = (compile_config_key(config), size)
        plan = self._plans.get(key)
        if plan is None:
            mod = self.module_for(config)
            env = self.benchmark.param_env(size)
            reg_ops = []
            for ck in mod:
                form = exact_counts(ck, env, 0, 0).form
                reg_ops.append((form.base[REG_OPS], form.slope[REG_OPS]))
            # two threads that miss together build equal plans; either
            # may stay
            plan = self._plans[key] = _Plan(
                TimingModel(self.gpu, self.params).plan(mod, env),
                tuple(reg_ops),
            )
        return plan

    def measure(self, config: dict, size: int) -> VariantMeasurement:
        """Measure one variant at one input size."""
        return self.measure_many([(config, size)])[0]

    def measure_many(self, items) -> list[VariantMeasurement]:
        """Measure a batch of ``(config, size)`` pairs, in input order.

        Each distinct compile key compiles at most once per process and
        address width (GPUs of one width share the compile), and each
        distinct (compile key, size) is planned once, for the
        measurer's lifetime and regardless of order; so is each
        occupancy, per (``TC``, registers, shared memory).  So a point
        does only its launch arithmetic, its noise draw and its
        :class:`VariantMeasurement`.  This is the unit of work a
        sweep-engine shard runs, so a failure is wrapped in
        :class:`MeasurementError` to pin the exact point that caused it.
        """
        occupancy = self._occupancy
        out = []
        for config, size in items:
            try:
                timing, reg_ops = self._plan_for(config, size)
                tc = int(config["TC"])
                bc = int(config["BC"])
                launch = LaunchConfig(
                    tc, bc, l1_pref_kb=int(config.get("PL", 16))
                )
                seconds = measure_benchmark(timing, launch)
                shape = (tc, timing.regs_per_thread, timing.static_smem_bytes)
                occ = occupancy.get(shape)
                if occ is None:
                    occ = occupancy[shape] = hw_occupancy(self.gpu, *shape)
                t = tc * bc
                reg_instr = 0.0  # summed left to right, like every measured float
                for base, slope in reg_ops:
                    reg_instr += base + t * slope
                out.append(VariantMeasurement(
                    config=dict(config),
                    size=size,
                    seconds=seconds,
                    occupancy=occ,
                    regs_per_thread=timing.regs_per_thread,
                    reg_instructions=reg_instr,
                ))
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
    A batch with a quarantined point raises the engine's
    :class:`~repro.engine.resilience.BatchError`.
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
        for m in measurements:
            self.results.add(m)
        return [m.seconds for m in measurements]
