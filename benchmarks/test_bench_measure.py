"""Measurement bench: counting, timing and noise per measured point.

The Table IV kernels x the four GPUs x two sizes (the second and
fourth, like the cold e2e sweep) x the reduced ``TC`` axis, at ``BC``
48, ``UIF`` 1, ``PL`` 16 and no ``CFLAGS``: 1,024 points through
``Measurer.measure_many``.  A first pass compiles every module and fills
every count memo, so each timed round reads memoized count forms and
runs the timing model and the seeded noise draw only.  The median round
divided by 1,024 is the per-point measurement cost of a cold sweep
whose modules and counts are already in the process.
"""

from repro.arch import ALL_GPUS
from repro.autotune.measure import Measurer
from repro.experiments.common import KERNEL_ORDER, reduced_space
from repro.kernels import get_benchmark

POINTS = 1024


def _batches() -> list:
    tcs = reduced_space().by_name["TC"].values
    out = []
    for name in KERNEL_ORDER:
        bm = get_benchmark(name)
        for gpu in ALL_GPUS:
            pairs = [({"TC": tc, "BC": 48, "UIF": 1, "PL": 16, "CFLAGS": ""},
                      n)
                     for n in (bm.sizes[1], bm.sizes[3]) for tc in tcs]
            out.append((Measurer(bm, gpu), pairs))
    return out


def _measure_all(batches: list) -> list:
    return [m for measurer, pairs in batches
            for m in measurer.measure_many(pairs)]


def test_bench_measure_warm_points(benchmark):
    batches = _batches()
    warm = _measure_all(batches)
    assert len(warm) == POINTS
    measured = benchmark.pedantic(_measure_all, args=(batches,), rounds=5,
                                  iterations=1, warmup_rounds=1)
    assert measured == warm
    assert all(m.launchable for m in measured)
    benchmark.extra_info["points"] = POINTS
