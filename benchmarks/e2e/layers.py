"""Per-layer tracing from outside the program.

The traced run installs wrappers around each layer's public functions
(:data:`LIBRARY_PROBES`, :data:`SERVICE_PROBES`, :data:`CLIENT_PROBES`)
and removes them afterwards, leaving every original object in place.
Nothing under ``src/`` knows it is being traced.

A wrapper records a *span* -- layer, function, start, end, thread and
parent -- on a thread-local stack, so a span's self time is its duration
minus its direct children's.  Spans of one tune request or session carry
that operation's id.  The hottest leaves (``evaluate_expr_numpy``,
``point_key``, the cache row encoder) are only counted and timed in
aggregate; their time stays in the calling span's self time.  Coroutine
wrappers (the HTTP connection handler, the fleet's ``measure``) record
their wall time but stay off the stack, because coroutines interleave
on one thread.

Spans are kept in memory and exported at the end as a Chrome trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

SPAN, LEAF, ASYNC = "span", "leaf", "async"

MAX_SPANS = 300_000
"""Spans kept for the Chrome trace; aggregates count every call."""


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``module``'s attribute path ``qualname``."""

    module: str
    qualname: str
    layer: str
    kind: str = SPAN
    after: Callable | None = None
    """``after(tracer, args, result)``: extra counters from a call."""
    keep_durations: bool = False
    """Also keep every call's duration (for a percentile)."""

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    def resolve(self):
        """``(owner, attribute)``; the attribute must be defined on the
        owner itself, so restoring it never shadows an inherited one."""
        owner = importlib.import_module(self.module)
        *path, attr = self.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            raise AttributeError(f"{self.key}: not defined on {owner!r}")
        return owner, attr


class _ThreadState:
    def __init__(self):
        self.stack: list = []  # [span id, seconds covered by children]
        self.calls = defaultdict(int)
        self.dur = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self.rid = None


class Tracer:
    """Collects spans and per-function aggregates from the wrappers it
    installs."""

    def __init__(self):
        self.pid = os.getpid()
        self.events: list = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list = []
        self._absorbed: list[dict] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def set_request(self, rid) -> None:
        """Tag the spans this thread records next with an operation id."""
        self._state().rid = rid

    def count(self, name: str, value: float = 1.0) -> None:
        self._state().counters[name] += value

    # -- recording -----------------------------------------------------------

    def _enter(self, st) -> tuple:
        parent = st.stack[-1][0] if st.stack else None
        frame = [next(self._ids), 0.0]
        st.stack.append(frame)
        return frame, parent

    def _exit(self, st, key, layer, t0, frame, parent) -> float:
        t1 = time.perf_counter()
        st.stack.pop()
        if st.stack:
            st.stack[-1][1] += t1 - t0
        self._record(st, key, layer, t0, t1, frame[1], frame[0], parent)
        return t1 - t0

    def _record(self, st, key, layer, t0, t1, child_s, sid, parent):
        dur = t1 - t0
        st.calls[key] += 1
        st.dur[key] += dur
        st.self_s[key] += dur - child_s
        if len(self.events) < MAX_SPANS:
            self.events.append({
                "name": key.rsplit(":", 1)[-1], "cat": layer, "ph": "X",
                "ts": t0 * 1e6, "dur": dur * 1e6, "pid": self.pid,
                "tid": threading.get_ident(),
                "args": {"id": sid, "parent": parent, "rid": st.rid},
            })
        else:
            self.dropped += 1

    def span(self, layer: str, name: str):
        """A harness-side span (e.g. one whole operation)."""
        return _SpanContext(self, f"harness:{name}", layer)

    def _wrap(self, fn, probe: Probe):
        key, layer, after = probe.key, probe.layer, probe.after
        keep = probe.keep_durations
        tracer = self

        if probe.kind == ASYNC:
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                st = tracer._state()
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._record(st, key, layer, t0, time.perf_counter(),
                                   0.0, next(tracer._ids), None)
            return awrapper

        if probe.kind == LEAF:
            @functools.wraps(fn)
            def lwrapper(*args, **kwargs):
                st = tracer._state()
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    st.calls[key] += 1
                    st.dur[key] += time.perf_counter() - t0
            return lwrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            frame, parent = tracer._enter(st)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.counters[f"{key}.raised"] += 1
                raise
            finally:
                dur = tracer._exit(st, key, layer, t0, frame, parent)
                if keep:
                    st.samples[key].append(dur)
            if after is not None:
                after(tracer, args, result)
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, probes) -> None:
        for probe in probes:
            owner, attr = probe.resolve()
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, probe))
            else:
                patched = self._wrap(original, probe)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def absorb(self, summary: dict, events: list) -> None:
        """Merge another process's :meth:`summary` and trace events."""
        self._absorbed.append(summary)
        self.events.extend(events)

    def summary(self) -> dict:
        """Per-function ``calls``/``dur_s``/``self_s``, counters and
        duration samples, merged over threads and absorbed processes."""
        with self._lock:
            parts = [
                {
                    "funcs": {
                        k: {"calls": st.calls[k], "dur_s": st.dur[k],
                            "self_s": st.self_s.get(k, 0.0)}
                        for k in st.calls
                    },
                    "counters": st.counters,
                    "samples": st.samples,
                }
                for st in self._states
            ]
        funcs: dict = {}
        counters: dict = defaultdict(float)
        samples: dict = defaultdict(list)
        for part in parts + self._absorbed:
            for key, f in part["funcs"].items():
                g = funcs.setdefault(
                    key, {"calls": 0, "dur_s": 0.0, "self_s": 0.0}
                )
                for field in g:
                    g[field] += f[field]
            for k, v in part["counters"].items():
                counters[k] += v
            for k, v in part["samples"].items():
                samples[k].extend(v)
        return {"funcs": funcs, "counters": dict(counters),
                "samples": dict(samples)}

    def chrome_trace(self) -> dict:
        return {"traceEvents": self.events, "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped}}


class _SpanContext:
    def __init__(self, tracer: Tracer, key: str, layer: str):
        self.tracer, self.key, self.layer = tracer, key, layer

    def __enter__(self):
        self.st = self.tracer._state()
        self.frame, self.parent = self.tracer._enter(self.st)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.st, self.key, self.layer, self.t0,
                          self.frame, self.parent)


# -- counters taken from call arguments and results ----------------------------

def _points(tracer, args, result):
    tracer.count("autotune.measure.points", len(result))


def _rounds(tracer, args, result):
    tracer.count("autotune.search.rounds")


def _engine(tracer, args, result):
    engine = args[0]
    tracer.count("engine.runs")
    tracer.count("engine.points", engine.last_stats.total)
    tracer.count("engine.retries", engine.last_stats.retries)
    tracer.count("engine.quarantined",
                 sum(len(f.indices) for f in engine.last_failures))


def _cache_get(tracer, args, result):
    tracer.count("engine.cache.get_keys", len(args[1]))
    tracer.count("engine.cache.get_hits", len(result))


def _store_get(tracer, args, result):
    tracer.count("service.store.get_keys", len(args[1]))
    tracer.count("service.store.get_hits", len(result))


LIBRARY_PROBES = (
    # codegen, as the measurer and the static analyzer call it
    Probe("repro.autotune.measure", "compile_module", "codegen.compile"),
    Probe("repro.core.analyzer", "compile_module", "codegen.compile"),
    Probe("repro.core.analyzer", "StaticAnalyzer.analyze", "core.analyze"),
    # closed-form counting, as the timing model and the measurer call it
    Probe("repro.sim.timing", "exact_counts", "sim.counting"),
    Probe("repro.autotune.measure", "exact_counts", "sim.counting"),
    Probe("repro.sim.counting", "evaluate_region_tree",
          "sim.counting.region", LEAF),
    Probe("repro.sim.counting", "evaluate_expr_numpy",
          "sim.counting.domain", LEAF),
    Probe("repro.autotune.measure", "measure_benchmark", "sim.timing"),
    Probe("repro.autotune.measure", "Measurer.measure_many",
          "autotune.measure", after=_points),
    Probe("repro.autotune.measure", "BatchObjective.batch",
          "autotune.measure"),
    # the base class's ask/tell serve every registry strategy but static
    Probe("repro.autotune.search.base", "Search.search", "autotune.search"),
    Probe("repro.autotune.search.base", "Search.reset", "autotune.search"),
    Probe("repro.autotune.search.base", "Search.ask", "autotune.search"),
    Probe("repro.autotune.search.base", "Search.tell", "autotune.search",
          after=_rounds),
    Probe("repro.autotune.search.static_search", "StaticSearch.reset",
          "autotune.search"),
    Probe("repro.autotune.search.static_search", "StaticSearch.ask",
          "autotune.search"),
    Probe("repro.autotune.search.static_search", "StaticSearch.tell",
          "autotune.search"),
    Probe("repro.engine.engine", "SweepEngine.sweep", "engine",
          after=_engine),
    Probe("repro.engine.engine", "SweepEngine.run", "engine", after=_engine),
    Probe("repro.engine.pool", "evaluate_shard", "engine"),
    Probe("repro.engine.engine", "point_key", "engine.keying", LEAF),
    Probe("repro.engine.engine", "context_key", "engine.keying", LEAF),
    Probe("repro.engine.cache", "CacheStore.get_many", "engine.cache",
          after=_cache_get),
    Probe("repro.engine.cache", "CacheStore.put_many", "engine.cache"),
    Probe("repro.engine.cache", "_encode", "engine.cache.encode", LEAF),
)

SERVICE_PROBES = (
    Probe("repro.service.server", "serve_connection", "service.http", ASYNC),
    Probe("repro.service.fleet", "WorkerFleet.measure", "service.fleet",
          ASYNC),
    Probe("repro.service.store", "MeasurementStore.get_many",
          "service.store", after=_store_get),
    Probe("repro.service.store", "MeasurementStore.put_many",
          "service.store"),
    Probe("repro.service.store", "MeasurementStore.evict",
          "service.store.maint"),
    Probe("repro.engine.cache", "CacheStore.flush", "service.store.maint"),
)

CLIENT_PROBES = (
    Probe("repro.client", "ReproClient._request", "client",
          keep_durations=True),
    Probe("repro.client", "ReproClient.status", "client.poll", LEAF),
    Probe("repro.api.protocol", "Message.to_json", "api.codec"),
    Probe("repro.api.protocol", "Message.from_json", "api.codec"),
)

ALL_PROBES = LIBRARY_PROBES + SERVICE_PROBES + CLIENT_PROBES
_LAYER_OF = {probe.key: probe.layer for probe in ALL_PROBES}

# -- the per-layer metrics ------------------------------------------------------

#: name -> (unit, better); every traced run reports all of them, 0 where
#: a workload does not reach the layer
LAYER_METRICS = {
    "trace.ops": ("count", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "codegen.compile.calls": ("count", "lower"),
    "codegen.compile.self_s": ("s", "lower"),
    "core.analyze.calls": ("count", "lower"),
    "core.analyze.self_s": ("s", "lower"),
    "sim.counting.calls": ("count", "lower"),
    "sim.counting.self_s": ("s", "lower"),
    "sim.counting.region_evals": ("count", "lower"),
    "sim.counting.domain_evals": ("count", "lower"),
    "sim.counting.memo_hit_frac": ("fraction", "higher"),
    "sim.timing.calls": ("count", "lower"),
    "sim.timing.self_s": ("s", "lower"),
    "autotune.measure.points": ("count", "lower"),
    "autotune.measure.self_s": ("s", "lower"),
    "autotune.search.rounds": ("count", "lower"),
    "autotune.search.self_s": ("s", "lower"),
    "engine.runs": ("count", "lower"),
    "engine.points": ("count", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.keying_s": ("s", "lower"),
    "engine.retries": ("count", "lower"),
    "engine.quarantined": ("count", "lower"),
    "engine.cache.get_keys": ("count", "lower"),
    "engine.cache.get_s": ("s", "lower"),
    "engine.cache.hit_frac": ("fraction", "higher"),
    "engine.cache.put_rows": ("count", "lower"),
    "engine.cache.put_s": ("s", "lower"),
    "service.http.requests": ("count", "lower"),
    "service.http.handle_s": ("s", "lower"),
    "service.fleet.jobs": ("count", "lower"),
    "service.fleet.wait_s": ("s", "lower"),
    "service.fleet.busy_s": ("s", "lower"),
    "service.store.hit_frac": ("fraction", "higher"),
    "service.store.maint_s": ("s", "lower"),
    "client.requests": ("count", "lower"),
    "client.request_ms_p50": ("ms", "lower"),
    "client.polls_per_session": ("count", "lower"),
    "client.errors": ("count", "lower"),
    "api.codec_s": ("s", "lower"),
}


def layer_metrics(summary: dict) -> dict:
    """Every per-layer metric but the ``trace.*`` ones (which the
    harness adds) from a :meth:`Tracer.summary`."""
    funcs, counters = summary["funcs"], summary["counters"]

    def layer(name, field):
        return sum(f[field] for key, f in funcs.items()
                   if _LAYER_OF.get(key) == name)

    def func(key, field):
        return funcs.get(key, {}).get(field, 0)

    def frac(num, den):
        return num / den if den else 0.0

    region_evals = layer("sim.counting.region", "calls")
    counting_calls = layer("sim.counting", "calls")
    # in the server every SweepEngine.run is a fleet drainer's job
    fleet_busy = (func("repro.engine.engine:SweepEngine.run", "dur_s")
                  if layer("service.fleet", "calls") else 0.0)
    request_s = summary["samples"].get("repro.client:ReproClient._request")
    return {
        "codegen.compile.calls": layer("codegen.compile", "calls"),
        "codegen.compile.self_s": layer("codegen.compile", "self_s"),
        "core.analyze.calls": layer("core.analyze", "calls"),
        "core.analyze.self_s": layer("core.analyze", "self_s"),
        "sim.counting.calls": counting_calls,
        "sim.counting.self_s": layer("sim.counting", "self_s"),
        "sim.counting.region_evals": region_evals,
        "sim.counting.domain_evals": layer("sim.counting.domain", "calls"),
        # a memo miss evaluates the region tree twice (at T=0 and T=1)
        "sim.counting.memo_hit_frac": (
            max(0.0, 1.0 - region_evals / 2 / counting_calls)
            if counting_calls else 0.0
        ),
        "sim.timing.calls": layer("sim.timing", "calls"),
        "sim.timing.self_s": layer("sim.timing", "self_s"),
        "autotune.measure.points": counters.get(
            "autotune.measure.points", 0),
        "autotune.measure.self_s": layer("autotune.measure", "self_s"),
        "autotune.search.rounds": counters.get("autotune.search.rounds", 0),
        "autotune.search.self_s": layer("autotune.search", "self_s"),
        "engine.runs": counters.get("engine.runs", 0),
        "engine.points": counters.get("engine.points", 0),
        "engine.self_s": layer("engine", "self_s"),
        "engine.keying_s": layer("engine.keying", "dur_s"),
        "engine.retries": counters.get("engine.retries", 0),
        "engine.quarantined": counters.get("engine.quarantined", 0),
        "engine.cache.get_keys": counters.get("engine.cache.get_keys", 0),
        "engine.cache.get_s": func(
            "repro.engine.cache:CacheStore.get_many", "self_s"),
        "engine.cache.hit_frac": frac(
            counters.get("engine.cache.get_hits", 0),
            counters.get("engine.cache.get_keys", 0)),
        "engine.cache.put_rows": layer("engine.cache.encode", "calls"),
        "engine.cache.put_s": func(
            "repro.engine.cache:CacheStore.put_many", "self_s"),
        "service.http.requests": layer("service.http", "calls"),
        "service.http.handle_s": layer("service.http", "dur_s"),
        "service.fleet.jobs": layer("service.fleet", "calls"),
        "service.fleet.wait_s": max(
            0.0, layer("service.fleet", "dur_s") - fleet_busy),
        "service.fleet.busy_s": fleet_busy,
        "service.store.hit_frac": frac(
            counters.get("service.store.get_hits", 0),
            counters.get("service.store.get_keys", 0)),
        "service.store.maint_s": layer("service.store.maint", "self_s"),
        "client.requests": layer("client", "calls"),
        "client.request_ms_p50": (
            statistics.median(request_s) * 1e3 if request_s else 0.0),
        "client.polls_per_session": frac(
            layer("client.poll", "calls"),
            counters.get("client.managed_sessions", 0)),
        "client.errors": counters.get(
            "repro.client:ReproClient._request.raised", 0),
        "api.codec_s": layer("api.codec", "self_s"),
    }


def broken_probes() -> list[str]:
    """Keys of probes whose target is missing or of the wrong kind (the
    self-test asserts there are none, so a rename under ``src/`` fails
    loudly instead of reporting zeros)."""
    bad = []
    for probe in ALL_PROBES:
        try:
            owner, attr = probe.resolve()
        except (AttributeError, ImportError):
            bad.append(probe.key)
            continue
        target = vars(owner)[attr]
        target = getattr(target, "__func__", target)
        is_async = inspect.iscoroutinefunction(target)
        if not callable(target) or is_async != (probe.kind == ASYNC):
            bad.append(probe.key)
    return bad
