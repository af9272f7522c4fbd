"""Order statistics shared by the harness and ``compare.py``."""

from __future__ import annotations

import math
import statistics

MIN_TAIL_SAMPLES = 10
"""A percentile is reported only when at least this many samples lie
beyond it: p90 needs 100 samples, the median 20."""


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) of ``values``, linearly
    interpolated between order statistics.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it -- such a tail would be set by a handful of
    runs and would not repeat.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    xs = sorted(values)
    beyond = len(xs) * (100 - q) / 100
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond:.1f} beyond it; "
            f"need >= {MIN_TAIL_SAMPLES} (>= "
            f"{math.ceil(MIN_TAIL_SAMPLES * 100 / (100 - q))} samples)"
        )
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3

