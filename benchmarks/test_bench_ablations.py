"""Ablation benches for the timing model (DESIGN.md Sec. 5).

Each ablation disables one mechanism of the timing substrate and checks
which paper finding it carries:

- work spread        -> atax/BiCG's low-thread preference (Fig. 4 left);
- SFU latency hiding + block churn -> the compute kernels' high-thread
  preference (Fig. 4 right);
- the L1 cache-thrash model        -> the PL (L1 preference) parameter's
  effect on the row-walk kernels.
"""

import dataclasses

import numpy as np

from repro.arch import K20
from repro.codegen.compiler import CompileOptions, compile_module
from repro.kernels import get_benchmark
from repro.sim.timing import DEFAULT_PARAMS, LaunchConfig, TimingModel


def _rank_median_gap(name: str, size: int, params) -> float:
    """median TC of the faster half minus median TC of the slower half."""
    bm = get_benchmark(name)
    env = bm.param_env(size)
    mod = compile_module(name, list(bm.specs), CompileOptions(gpu=K20))
    tm = TimingModel(K20, params)
    times = {
        tc: tm.benchmark_time(mod, LaunchConfig(tc, 96), env)
        for tc in range(32, 1025, 32)
    }
    ordered = sorted(times, key=times.get)
    half = len(ordered) // 2
    return float(np.median(ordered[:half]) - np.median(ordered[half:]))


def test_bench_ablation_sfu_hiding_and_churn(benchmark):
    """Without SFU hiding + churn, ex14FJ loses its high-TC preference."""

    def run():
        full = _rank_median_gap("ex14fj", 128, DEFAULT_PARAMS)
        ablated = _rank_median_gap(
            "ex14fj", 128,
            dataclasses.replace(DEFAULT_PARAMS, w_need_sfu=0.0,
                                block_switch=0.0),
        )
        return full, ablated

    full, ablated = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nex14FJ rank-median TC gap: full model {full:+.0f}, "
          f"no-SFU-hiding/no-churn {ablated:+.0f}")
    assert full > 0           # high-TC preference present
    assert ablated < full     # and carried by the ablated mechanisms


def test_bench_ablation_work_spread(benchmark):
    """atax's low-TC preference comes from work spread: with enough
    parallelism (matvec2d) the same model does NOT prefer low TC."""

    def run():
        atax_gap = _rank_median_gap("atax", 512, DEFAULT_PARAMS)
        mv_gap = _rank_median_gap("matvec2d", 512, DEFAULT_PARAMS)
        return atax_gap, mv_gap

    atax_gap, mv_gap = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nrank-median TC gap: atax {atax_gap:+.0f} "
          f"(low-TC preference), matvec2d {mv_gap:+.0f}")
    assert atax_gap < -200    # strongly low
    assert mv_gap > atax_gap + 200


def test_bench_ablation_l1_thrash(benchmark):
    """The PL parameter only matters through the cache-thrash model, and
    only for the strided-with-reuse kernels (atax), on configurable-L1
    architectures (Fermi/Kepler)."""

    def run():
        tm = TimingModel(K20)
        l16 = LaunchConfig(256, 48, l1_pref_kb=16)
        l48 = LaunchConfig(256, 48, l1_pref_kb=48)
        bm = get_benchmark("atax")
        env = bm.param_env(512)
        atax = compile_module("a", list(bm.specs), CompileOptions(gpu=K20))
        t16 = tm.benchmark_time(atax, l16, env)
        t48 = tm.benchmark_time(atax, l48, env)
        bme = get_benchmark("ex14fj")
        enve = bme.param_env(64)
        ex14fj = compile_module("e", list(bme.specs), CompileOptions(gpu=K20))
        e16 = tm.benchmark_time(ex14fj, l16, enve)
        e48 = tm.benchmark_time(ex14fj, l48, enve)
        return t16, t48, e16, e48

    t16, t48, e16, e48 = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\natax PL=16: {t16*1e6:.1f}us  PL=48: {t48*1e6:.1f}us | "
          f"ex14fj PL=16: {e16*1e6:.1f}us  PL=48: {e48*1e6:.1f}us")
    assert t48 <= t16                 # bigger L1 helps the row walk
    assert abs(e48 - e16) / e16 < 0.01  # coalesced stencil indifferent
