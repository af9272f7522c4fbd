"""Sweep engine bench: cold measurement vs. warm persistent-cache serve.

The cold pass measures the full reduced atax/K20 sweep (256 variants x 3
sizes) through the engine and populates the on-disk cache; the benchmark
then times the warm pass, which serves every point from SQLite.  The
test asserts the acceptance bar for the engine: a cached re-run is at
least 5x faster than measuring.  Both sides are timed the same way:
three rounds each, alternating, each cold round into a new cache from
empty process caches, best round against best round, so a burst of
load on a shared host slows both rather than one.
"""

import time

from repro.arch import get_gpu
from repro.engine import CacheStore, RetryPolicy, SweepEngine
from repro.experiments.common import reduced_space
from repro.kernels import get_benchmark


def test_bench_cached_sweep_speedup(benchmark, tmp_path, _fresh_sweep_cache):
    bm = get_benchmark("atax")
    gpu = get_gpu("kepler")
    space = reduced_space()
    sizes = bm.sizes[::2]
    cold_runs, engines = [], []

    def cold_round():
        _fresh_sweep_cache()
        engine = SweepEngine(jobs=1,
                             cache=CacheStore(tmp_path / str(len(engines))))
        engines.append(engine)
        t0 = time.perf_counter()
        cold = engine.sweep(bm, gpu, space, sizes)
        cold_runs.append((time.perf_counter() - t0, cold))
        return (engine,), {}

    def warm_round(engine):
        warm = engine.sweep(bm, gpu, space, sizes)
        assert engine.last_stats.hit_rate == 1.0
        return warm

    warm = benchmark.pedantic(warm_round, setup=cold_round, rounds=3,
                              iterations=1)
    for engine in engines:
        engine.close()
    cold = cold_runs[0][1]
    assert all(r == cold for _, r in cold_runs)
    assert warm == cold

    cold_t = min(t for t, _ in cold_runs)
    warm_t = benchmark.stats.stats.min
    speedup = cold_t / warm_t
    assert speedup >= 5.0, (
        f"cached sweep only {speedup:.1f}x faster "
        f"(cold {cold_t:.3f}s, warm {warm_t:.3f}s)"
    )
    print(f"\ncold {cold_t * 1e3:.1f} ms -> warm {warm_t * 1e3:.1f} ms "
          f"({speedup:.1f}x, {len(cold)} measurements)")


def test_bench_supervision_overhead_floor(benchmark, tmp_path):
    """Supervision must be free on the happy path.

    The resilience layer (retry bookkeeping, per-shard deadlines,
    incremental checkpointing, quarantine probing in the cache decode
    path) runs on every sweep, faults or not.  This bench serves the same
    warm sweep through a supervised engine (default policy) and through a
    bare-minimum one (single attempt, no deadline) and asserts the
    supervised wall time stays within 5% of the floor, plus a small
    absolute slack so micro-jitter on a ~100 ms sweep cannot flake CI.
    """
    bm = get_benchmark("atax")
    gpu = get_gpu("kepler")
    space = reduced_space()
    sizes = bm.sizes[::2]

    with SweepEngine(jobs=1, cache=tmp_path) as seeder:
        baseline = seeder.sweep(bm, gpu, space, sizes)

    bare = RetryPolicy(max_attempts=1, shard_timeout_s=None)
    with SweepEngine(jobs=1, cache=tmp_path, policy=bare) as floor_engine:
        floor_t = min(
            _timed(floor_engine.sweep, bm, gpu, space, sizes)
            for _ in range(3)
        )

    supervised = SweepEngine(jobs=1, cache=tmp_path)
    with supervised:
        warm = benchmark.pedantic(
            supervised.sweep, args=(bm, gpu, space, sizes),
            rounds=3, iterations=1,
        )
        stats = supervised.last_stats
    assert warm == baseline
    assert stats.hit_rate == 1.0
    assert (stats.retries, stats.failures, stats.recovered) == (0, 0, 0)

    sup_t = benchmark.stats.stats.min
    budget = floor_t * 1.05 + 0.05
    assert sup_t <= budget, (
        f"supervised warm sweep {sup_t * 1e3:.1f} ms exceeds overhead "
        f"budget {budget * 1e3:.1f} ms (floor {floor_t * 1e3:.1f} ms)"
    )
    print(f"\nfloor {floor_t * 1e3:.1f} ms -> supervised "
          f"{sup_t * 1e3:.1f} ms "
          f"(+{(sup_t / floor_t - 1) * 100:.1f}%)")


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0
