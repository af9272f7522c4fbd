"""Suite sweep bench: cold corpus measurement vs. warm cache serve.

The cold pass measures every corpus member's reduced evaluation space on
K20 through one shared engine, populating the on-disk cache; the
benchmark then times the warm pass over the same corpus, which serves
every point from SQLite.  This is the engine acceptance bar (>= 5x)
applied to the whole 11-member corpus rather than one kernel, so a
benchmark whose space or sizes quietly explode shows up here.  Both
sides are timed the same way: three rounds each, alternating, each cold
round into a new cache from empty process caches, best round against
best round, so a burst of load on a shared host slows both rather than
one.
"""

import time

from repro.arch import get_gpu
from repro.engine import CacheStore, SweepEngine
from repro.suite import corpus_members, corpus_sizes, corpus_space


def _sweep_corpus(engine, gpu):
    out = []
    for bm in corpus_members():
        results = engine.sweep(
            bm, gpu, corpus_space(bm), corpus_sizes(bm)
        )
        assert engine.last_stats is not None
        out.append((bm.name, results))
    return out


def test_bench_cached_corpus_sweep_speedup(benchmark, tmp_path,
                                           _fresh_sweep_cache):
    gpu = get_gpu("kepler")
    cold_runs, engines = [], []

    def cold_round():
        _fresh_sweep_cache()
        engine = SweepEngine(jobs=1,
                             cache=CacheStore(tmp_path / str(len(engines))))
        engines.append(engine)
        t0 = time.perf_counter()
        cold = _sweep_corpus(engine, gpu)
        cold_runs.append((time.perf_counter() - t0, cold))
        assert engine.total_measured > 0
        return (engine,), {}

    def warm_round(engine):
        measured = engine.total_measured
        warm = _sweep_corpus(engine, gpu)
        assert engine.total_measured == measured  # warm passes measured nothing
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
        f"cached corpus sweep only {speedup:.1f}x faster "
        f"(cold {cold_t:.3f}s, warm {warm_t:.3f}s)"
    )
    points = sum(len(r) for _, r in cold)
    print(f"\ncold {cold_t * 1e3:.0f} ms -> warm {warm_t * 1e3:.0f} ms "
          f"({speedup:.1f}x, {len(cold)} kernels, {points} measurements)")
