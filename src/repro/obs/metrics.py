"""Labeled counters, gauges, and histograms with a JSON snapshot.

One registry is the single source of truth for the run-level numbers
that used to live scattered across subsystems: the engine's lifetime
``total_measured``/``total_hits``, per-sweep :class:`SweepStats`, the
cache store's hit/miss/corrupt counters, the emulator's
:class:`LaunchProfile` throughput, and the search strategies' evaluation
counts.  Each series is keyed by ``(kind, name, sorted label items)`` so
``engine.measured{kernel=atax}`` and ``engine.measured{kernel=bicg}``
accumulate independently while ``snapshot()`` still reads as one flat
list.

Counters only go up; gauges hold the last value set; histograms keep
count/sum/min/max plus fixed log-scale bucket counts (enough for
latency-style distributions without storing samples).  All three are
lock-guarded -- cheap, and the emulator records from whatever thread
runs it.
"""

from __future__ import annotations

import json
import threading

METRICS_SCHEMA = "repro.obs.metrics/1"

_BUCKETS = tuple(10.0 ** e for e in range(-7, 4))
"""Histogram bucket upper bounds: 100ns .. 1000s, one per decade."""


def _series_key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """The process-wide metric store (one per enabled obs session)."""

    def __init__(self):
        self._counters: dict = {}
        self._gauges: dict = {}
        self._hists: dict = {}
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def add(self, name: str, value: float = 1, **labels) -> None:
        """Increment counter ``name`` (negative increments are a bug in
        the caller; they are applied as-is so the bug is visible)."""
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        with self._lock:
            self._gauges[_series_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one sample into histogram ``name``."""
        key = _series_key(name, labels)
        with self._lock:
            h = self._hists.get(key)
            if h is None:
                h = self._hists[key] = {
                    "count": 0, "sum": 0.0,
                    "min": float("inf"), "max": float("-inf"),
                    "buckets": [0] * (len(_BUCKETS) + 1),
                }
            h["count"] += 1
            h["sum"] += value
            h["min"] = min(h["min"], value)
            h["max"] = max(h["max"], value)
            for i, bound in enumerate(_BUCKETS):
                if value <= bound:
                    h["buckets"][i] += 1
                    break
            else:
                h["buckets"][-1] += 1

    # -- reading -------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """Current value of a counter or gauge series (0 if unseen) --
        for derived gauges like issues-per-second and for tests."""
        key = _series_key(name, labels)
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            return self._gauges.get(key, 0)

    def absorb_cache_stats(self, store) -> None:
        """Reset-and-set gauges from a live :class:`CacheStore`'s own
        counters (the store predates the registry and keeps counting on
        its own; gauges mirror it instead of double-counting)."""
        self.set_gauge("cache.hits", store.hits)
        self.set_gauge("cache.misses", store.misses)
        self.set_gauge("cache.quarantined_payloads", store.corrupt)
        self.set_gauge("cache.flush_errors", store.flush_errors)

    def snapshot(self) -> dict:
        """The whole registry as a JSON-able document."""
        with self._lock:
            def rows(table, render):
                return [
                    {
                        "name": name,
                        "labels": dict(labels),
                        **render(v),
                    }
                    for (name, labels), v in sorted(table.items())
                ]
            return {
                "schema": METRICS_SCHEMA,
                "counters": rows(self._counters, lambda v: {"value": v}),
                "gauges": rows(self._gauges, lambda v: {"value": v}),
                "histograms": rows(self._hists, lambda h: {
                    "count": h["count"],
                    "sum": h["sum"],
                    "min": h["min"],
                    "max": h["max"],
                    "bucket_bounds": list(_BUCKETS),
                    "buckets": list(h["buckets"]),
                }),
            }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=1, sort_keys=True)
