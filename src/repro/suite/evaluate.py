"""Cross-kernel evaluation: model accuracy and autotuning quality.

Two row builders, one per table of the ``suite`` experiment.  Both route
every measurement through the caller's engine (the runner's shared
:class:`~repro.engine.engine.SweepEngine`) so an 11-member suite pass is
sharded and cache-served exactly like the paper experiments.
"""

from __future__ import annotations

import numpy as np

from repro.arch.specs import GPUSpec
from repro.arch.throughput import PipeClass
from repro.autotune.measure import Measurer, compile_config_key
from repro.autotune.space import ParameterSpace
from repro.autotune.tuner import Autotuner
from repro.codegen.compiler import CompileOptions, compile_module
from repro.core.instruction_mix import static_mix_module
from repro.core.timing_model import Eq6Model, profile_mae
from repro.kernels.base import Benchmark
from repro.sim.counting import exact_counts, validate_against_emulation
from repro.sim.emulator import run_benchmark_emulated
from repro.sim.timing import LaunchConfig
from repro.util.rng import rng_for

BASELINE_TC = 128
"""The Table VI dynamic-baseline thread count (shared with
``table6_mix_errors``)."""

MIX_CLASSES = (PipeClass.FLOPS, PipeClass.MEM, PipeClass.CTRL)


def baseline_launch(module, env) -> LaunchConfig:
    """The dynamic-mix baseline: TC=128 with a grid sized to the work.

    Launching far more threads than parallel-loop iterations would fill
    the dynamic counts with idle-thread preambles and say nothing about
    the kernel; a practitioner sizes the grid to ``ceil(M / TC)``
    (capped at the tuning space's maximum of 192 blocks).  This is the
    Table VI convention; ``table6_mix_errors`` and the suite's
    ``accuracy_row`` share it through here.
    """
    from repro.codegen.ast_nodes import evaluate_expr

    extent = 0
    for ck in module:
        if ck.parallel_extent is not None:
            extent = max(extent, int(evaluate_expr(ck.parallel_extent, env)))
    bc = max(1, min(192, -(-extent // BASELINE_TC))) if extent else 1
    return LaunchConfig(tc=BASELINE_TC, bc=bc)


def pipe_fractions(by_pipe: dict) -> dict:
    """Per-pipe fractions of the non-register instruction total."""
    tot = sum(v for k, v in by_pipe.items() if k is not PipeClass.REG)
    tot = max(tot, 1e-12)
    return {k: v / tot for k, v in by_pipe.items() if k is not PipeClass.REG}


def mix_error_by_class(module, param_env, sizes) -> tuple[dict, float]:
    """Static-vs-dynamic mix error per pipe class, plus the intensity.

    For each input size, compares the static analyzer's mix fractions
    against the exact dynamic counts at the baseline launch and
    accumulates the squared relative error per class (the Table VI
    metric).  Returns ``({FLOPS: e, MEM: e, CTRL: e}, intensity)`` with
    the intensity taken from the largest size's static mix.
    """
    errs = {p: 0.0 for p in MIX_CLASSES}
    intensity = 0.0
    for n in sizes:
        env = param_env(n)
        smix = static_mix_module(module, env)
        sfrac = pipe_fractions(smix.by_pipe())
        launch = baseline_launch(module, env)
        dyn_pipe = {p: 0.0 for p in PipeClass}
        for ck in module:
            dc = exact_counts(ck, env, launch.tc, launch.bc)
            for p, v in dc.by_pipe().items():
                dyn_pipe[p] += v
        dfrac = pipe_fractions(dyn_pipe)
        for p in errs:
            d = max(dfrac[p], 1e-12)
            errs[p] += ((sfrac[p] - d) / d) ** 2
        intensity = smix.intensity
    return errs, intensity


def emulator_ground_truth(benchmark: Benchmark, module, size: int) -> dict:
    """Back-validate the counting model against a real emulated launch.

    Emulates the member at ``size`` under its declared launch (on the
    vectorized fast path -- what makes running this per suite pass
    affordable) and compares the closed-form exact counts against the
    emulator's thread-level ground truth.  Returns the measured SIMD
    efficiency, the worst per-category count deviation, and the emulator
    path/width that produced it.
    """
    inputs = benchmark.make_inputs(
        size, rng_for("suite", "emulate", benchmark.name, size)
    )
    tc, bc = benchmark.emu_launch(size)
    _outs, emu = run_benchmark_emulated(module, inputs, tc=tc, bc=bc)
    env = benchmark.param_env(size)
    # bind the concrete input arrays so the counting substrate evaluates
    # data-dependent trip counts and guards exactly (input-aware mode);
    # the irregular members' count_err stays ~0 only through this
    env.update({k: v for k, v in inputs.items() if isinstance(v, np.ndarray)})
    totals: dict = {}
    for ck in module:
        for cat, v in exact_counts(ck, env, tc, bc).by_category.items():
            totals[cat] = totals.get(cat, 0.0) + v
    deviations = validate_against_emulation(totals, emu)
    profile = emu.profile
    return {
        "simd_eff": emu.simd_efficiency,
        "count_err": max(deviations.values(), default=0.0),
        "emu_mode": profile.mode if profile else "scalar",
        "emu_width": profile.mean_stack_width if profile else 1.0,
    }


def eq6_profile(benchmark: Benchmark, gpu: GPUSpec, measurements):
    """``(predicted, observed)``: the Eq. 6 cost of each launchable
    measurement's static mix, and its seconds.  A static mix cannot see
    the launch, so each cost is computed once per module and size, from
    the measurement view one :class:`Measurer` holds: a registered
    benchmark's views are the ones its sweep compiled."""
    eq6 = Eq6Model.for_gpu(gpu)
    measurer = Measurer(benchmark, gpu)
    costs: dict = {}
    predicted, observed = [], []
    for m in measurements:
        if not m.launchable:
            continue
        key = compile_config_key(m.config), m.size
        if key not in costs:
            mix = static_mix_module(measurer.module_for(m.config),
                                    benchmark.param_env(m.size))
            costs[key] = eq6.weighted_cost(mix)
        predicted.append(costs[key])
        observed.append(m.seconds)
    return predicted, observed


def accuracy_row(
    benchmark: Benchmark,
    gpu: GPUSpec,
    space: ParameterSpace,
    sizes,
    engine=None,
) -> dict:
    """How well the static models predict one member on one GPU.

    ``time_mae``: mean absolute error of the Eq. 6 static cost against
    the measured sweep (both min-max normalized, sorted profiles -- the
    Fig. 5 metric, here over the member's own evaluation space).
    ``mix_err``: total squared relative error of the static instruction-
    mix fractions against the exact dynamic mix, summed over the three
    pipe classes and the input sizes (the Table VI metric collapsed to
    one number).  ``intensity``: the static computational intensity the
    Sec. III-C rule thresholds at 4.0.  ``simd_eff``/``count_err``: the
    emulator ground truth from :func:`emulator_ground_truth` at the
    member's smallest selected size.
    """
    tuner = Autotuner(benchmark, gpu, space=space)
    results = tuner.sweep(sizes=sizes, engine=engine)
    predicted, observed = eq6_profile(benchmark, gpu, results.measurements)
    time_mae = profile_mae(predicted, observed)

    module = compile_module(
        benchmark.name, list(benchmark.specs), CompileOptions(gpu=gpu)
    )
    errs, intensity = mix_error_by_class(module, benchmark.param_env, sizes)
    mix_err = 0.0  # a left fold: from Python 3.12, sum() is compensated
    for err in errs.values():
        mix_err += err
    row = {
        "kernel": benchmark.name,
        "arch": gpu.name,
        "variants": len(observed),
        "time_mae": time_mae,
        "mix_err": mix_err,
        "intensity": intensity,
    }
    row.update(emulator_ground_truth(benchmark, module, min(sizes)))
    return row


def quality_row(
    benchmark: Benchmark,
    gpu: GPUSpec,
    space: ParameterSpace,
    size: int,
    engine=None,
) -> dict:
    """What the static choice gives up against the best-searched config.

    Tunes one member at one size three ways through the shared engine --
    exhaustive (the searched optimum), the paper's static module, and
    static + the intensity rule -- and reports each pruned search's
    best time relative to the optimum plus the fraction of the space it
    removed.
    """
    tuner = Autotuner(benchmark, gpu, space=space)
    exhaustive = tuner.tune(size=size, search="exhaustive", engine=engine)
    t_opt = exhaustive.best_seconds
    row = {
        "kernel": benchmark.name,
        "arch": gpu.name,
        "size": size,
        "best_seconds": t_opt,
        "best_tc": exhaustive.best_config["TC"],
    }
    for label, use_rule in (("static", False), ("rb", True)):
        out = tuner.tune(size=size, search="static", use_rule=use_rule,
                         engine=engine)
        row[f"{label}_quality"] = (
            out.best_seconds / t_opt if t_opt else 1.0
        )
        row[f"{label}_reduction"] = out.search.space_reduction
        row[f"{label}_tc"] = out.best_config["TC"]
    return row
