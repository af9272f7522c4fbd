"""Batched-search bench: genetic search through the parallel engine.

Genetic search proposes whole populations per generation through the
ask/tell protocol, so the engine can shard each generation across worker
processes.  The test asserts the acceptance bar for the batched search
path: on a cold cache, ``jobs=4`` beats ``jobs=1`` on wall-clock (the
timing assertion requires a multi-core host; results must be
byte-identical everywhere).  Both sides are timed the same way: five
rounds each, alternating, best round against best round, so a burst of
load on a shared host slows both rather than one.
"""

import json
import os
import time

import pytest

from repro.arch import get_gpu
from repro.autotune import Autotuner
from repro.engine import SweepEngine
from repro.kernels import get_benchmark


def _tune_genetic(engine):
    tuner = Autotuner(get_benchmark("atax"), get_gpu("kepler"))
    return tuner.tune(size=512, search="genetic", population=128,
                      generations=8, engine=engine)


def test_bench_genetic_parallel_beats_serial(benchmark, _fresh_sweep_cache):
    serial_runs = []

    def cold_serial_round():
        # every serial round compiles and counts from empty process caches
        _fresh_sweep_cache()
        with SweepEngine(jobs=1) as serial_engine:
            t0 = time.perf_counter()
            result = _tune_genetic(serial_engine)
            serial_runs.append((time.perf_counter() - t0, result))

    with SweepEngine(jobs=4) as parallel_engine:
        parallel = benchmark.pedantic(
            _tune_genetic, args=(parallel_engine,), setup=cold_serial_round,
            rounds=5, iterations=1,
        )
    # best-of-rounds on both sides damps scheduler noise on shared CI
    # runners
    serial_t = min(t for t, _ in serial_runs)
    parallel_t = benchmark.stats.stats.min
    serial = serial_runs[0][1]
    assert all(
        r.search.history == serial.search.history for _, r in serial_runs
    )

    # parallel evaluation must never change what was measured
    assert parallel.search.history == serial.search.history
    assert parallel.best_config == serial.best_config
    assert [
        json.dumps(vars(m)) for m in parallel.results.measurements
    ] == [json.dumps(vars(m)) for m in serial.results.measurements]

    cores = os.cpu_count() or 1
    print(f"\nserial {serial_t * 1e3:.0f} ms -> jobs=4 "
          f"{parallel_t * 1e3:.0f} ms "
          f"({serial_t / parallel_t:.2f}x, "
          f"{serial.search.evaluations} evaluations, {cores} cores)")
    if cores < 2:
        pytest.skip("single-core host cannot express a parallel speedup")
    assert parallel_t < serial_t, (
        f"jobs=4 genetic search ({parallel_t:.3f}s) did not beat jobs=1 "
        f"({serial_t:.3f}s) on a cold cache"
    )
