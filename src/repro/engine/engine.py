"""The parallel, cache-backed sweep engine.

:class:`SweepEngine` is the one place the repo turns a work list of
``(kernel, GPU, config, size)`` points into measurements.  The stages are
deliberately explicit and debuggable:

1. **Enumerate** the work list in the canonical serial order
   (:func:`~repro.engine.work.build_work_list`).
2. **Probe** the persistent cache: every point already measured under the
   same kernel/GPU/config/size/:class:`ModelParams` address is served
   from disk (:mod:`repro.engine.cache`), as the work item's own config
   and size with the stored row's numbers.
3. **Shard** the misses, one shard per compile key
   (:func:`~repro.engine.work.shard_work`).
4. **Execute** the shards under supervision -- on worker processes, or
   inline when ``jobs=1`` (:mod:`repro.engine.pool`): dead or hung
   workers are respawned and their shards retried with backoff, and a
   work item that keeps failing is bisected out and quarantined as a
   :class:`~repro.engine.resilience.ShardFailure` rather than aborting
   the sweep.  Each completed shard's measurements are **checkpointed**
   to the cache as they arrive, so an interrupted sweep resumes warm.
5. **Reassemble** the canonical order, so parallel output is
   byte-identical to serial output.

The timing model is deterministic (noise is seeded from the
configuration itself), which is what makes stages 2 and 4 safe: a cached
or remote measurement equals an inline one exactly -- including a
retried one, so recovery never changes results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.arch.specs import GPUSpec
from repro.autotune.measure import (
    Measurer,
    VariantMeasurement,
    travels_by_name,
)
from repro.autotune.space import ParameterSpace
from repro.engine.cache import CacheStore, context_key, point_key
from repro.engine.pool import PoolExecutor, resolve_jobs
from repro.engine.progress import NULL_PROGRESS
from repro.engine.work import build_pairs, build_work_list, shard_work
from repro.kernels.base import Benchmark
from repro.sim.timing import DEFAULT_PARAMS, ModelParams
from repro.util.memo import Memo


@dataclass(frozen=True)
class SweepStats:
    """What the last engine run did."""

    total: int
    hits: int
    measured: int
    elapsed_s: float
    retries: int = 0
    """Shard re-submissions after faults (incl. bisection halves)."""
    failures: int = 0
    """Work items quarantined after exhausting their retry budget."""
    recovered: int = 0
    """Shards that succeeded after at least one fault."""
    corrupt: int = 0
    """Cache rows that failed to decode and were re-measured."""

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


class SweepEngine:
    """Measures work lists across processes, backed by a persistent cache.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` runs inline, ``None``/``0`` uses every
        CPU.
    cache:
        A :class:`CacheStore`, a path (directory or ``*.sqlite`` file) to
        open one at, or ``None`` to disable persistence.
    progress:
        A :class:`~repro.engine.progress.ProgressReporter`; default no-op.
    """

    def __init__(self, jobs: int | None = 1, cache=None, progress=None,
                 policy=None):
        self.jobs = resolve_jobs(jobs)
        self._owns_cache = cache is not None and not isinstance(
            cache, CacheStore
        )
        if cache is None or isinstance(cache, CacheStore):
            self.cache = cache
        else:
            self.cache = CacheStore(Path(cache))
        self.progress = progress if progress is not None else NULL_PROGRESS
        self.last_stats: SweepStats | None = None
        self.last_failures: list = []
        """:class:`~repro.engine.resilience.ShardFailure` quarantine
        records from the last run (empty on a fault-free run)."""
        self.total_measured = 0
        """Fresh measurements over the engine's lifetime (a search run
        issues many small batches; ``last_stats`` only covers the last)."""
        self.total_hits = 0
        """Cache hits over the engine's lifetime."""
        self.total_retries = 0
        self.total_failures = 0
        self.total_recovered = 0
        self._contexts = Memo(256)
        """``(kernel name, GPU, id(specs), id(params))`` -> ``(specs,
        params, digest)``; the corpus has 15 kernels on 4 GPUs.  An entry
        holds the two objects its key names by identity, so neither id
        can be reused while it lives.  Not registered: each tune builds its
        own engine, and the memo registry must not grow with requests."""
        self._executor = PoolExecutor(self.jobs, policy=policy)

    def close(self) -> None:
        """Release the worker pool (the cache, possibly shared, is left
        open).  The engine stays usable; workers respawn on demand."""
        self._executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        """Context-manager exit also closes a cache the engine opened
        itself (one built from a path); a shared :class:`CacheStore`
        instance passed in by the caller is left open."""
        self.close()
        if self._owns_cache and self.cache is not None:
            self.cache.close()

    # -- entry points --------------------------------------------------------

    def sweep(
        self,
        benchmark: Benchmark,
        gpu: GPUSpec,
        space: ParameterSpace,
        sizes,
        params: ModelParams = DEFAULT_PARAMS,
    ) -> list:
        """Measure every configuration at every size, in canonical order."""
        return self._execute(
            Measurer(benchmark, gpu, params), build_work_list(space, sizes),
            label=f"sweep {benchmark.name}/{gpu.name}",
        )

    def run(self, measurer: Measurer, pairs) -> list:
        """Measure explicit ``(config, size)`` pairs on ``measurer``,
        preserving order (the batch path the search strategies use).
        Inline shards run on ``measurer`` itself, so its compiled modules
        serve every batch."""
        return self._execute(
            measurer, build_pairs(pairs),
            label=f"batch {measurer.benchmark.name}/{measurer.gpu.name}",
        )

    # -- pipeline ------------------------------------------------------------

    def _context(self, measurer: Measurer) -> str:
        """The sweep's :func:`context_key`, computed once per (kernel,
        GPU, specs, params) rather than once per sweep."""
        benchmark, params = measurer.benchmark, measurer.params
        key = (benchmark.name, measurer.gpu, id(benchmark.specs), id(params))
        entry = self._contexts.get(key)
        if entry is None:
            digest = context_key(benchmark.name, measurer.gpu, params,
                                 specs=benchmark.specs)
            entry = self._contexts.put(key, (benchmark.specs, params, digest))
        return entry[2]

    def _execute(self, measurer, items, label) -> list:
        # the root span of the engine's trace subtree ("sweep ..." or
        # "batch ..."); shard/attempt/measure spans nest under it
        with obs.span(label.split()[0], key=label,
                      args={"points": len(items)}) as sp:
            results = self._execute_traced(measurer, items, label, sp)
        return results

    def _execute_traced(self, measurer, items, label, sp) -> list:
        t0 = time.monotonic()
        results: list = [None] * len(items)
        corrupt_before = self.cache.corrupt if self.cache is not None else 0

        # stage 2: probe the cache
        misses = items
        keys = None
        benchmark, gpu = measurer.benchmark, measurer.gpu
        if self.cache is not None and items:
            ctx = self._context(measurer)
            keys = [
                point_key(ctx, item.config, item.size) for item in items
            ]
            found = self.cache.get_many(keys)
            misses = []
            for item, key in zip(items, keys):
                numbers = found.get(key)
                if numbers is not None:
                    # the item's config is the engine's own copy
                    results[item.index] = VariantMeasurement(
                        item.config, item.size, *numbers
                    )
                else:
                    misses.append(item)
        hits = len(items) - len(misses)

        # stages 3-4: shard and execute under supervision, checkpointing
        # each completed shard to the cache as it arrives (an interrupted
        # sweep resumes warm instead of losing every measurement)
        self.progress.start(len(items), label)
        self.progress.advance(hits)
        report = None
        if misses:
            # one shard per compile group, independent of the worker
            # count (see shard_work).  A benchmark that cannot travel to
            # workers gets one shard, which runs inline -- slower, never
            # wrong.
            shards = (
                shard_work(misses) if travels_by_name(benchmark)
                else [misses]
            )
            tasks = [(measurer, shard) for shard in shards]

            def checkpoint(task, pairs):
                if self.cache is not None:
                    self.cache.put_many((keys[i], m) for i, m in pairs)

            for index, m in self._executor.run(
                tasks, progress=self.progress, on_shard_done=checkpoint,
            ):
                results[index] = m
            report = self._executor.last_report

        # stage 5: reassembled above by item index; account and report
        self.last_failures = list(report.failures) if report else []
        if self.last_failures:
            quarantined = sum(len(f.indices) for f in self.last_failures)
            self.progress.note(
                f"{label}: quarantined {quarantined} work item(s) "
                "after retry exhaustion (see engine.last_failures)"
            )
        else:
            quarantined = 0
        self.progress.finish()

        self.last_stats = SweepStats(
            total=len(items),
            hits=hits,
            measured=len(misses) - quarantined,
            elapsed_s=time.monotonic() - t0,
            retries=report.retries if report else 0,
            failures=len(self.last_failures),
            recovered=report.recovered if report else 0,
            corrupt=(self.cache.corrupt - corrupt_before)
            if self.cache is not None else 0,
        )
        self.total_measured += self.last_stats.measured
        self.total_hits += hits
        self.total_retries += self.last_stats.retries
        self.total_failures += self.last_stats.failures
        self.total_recovered += self.last_stats.recovered

        stats = self.last_stats
        sp.annotate(
            hits=hits, measured=stats.measured, quarantined=quarantined,
            retries=stats.retries, corrupt=stats.corrupt,
        )
        if obs.metrics is not None:
            # the engine-level reconciliation set: points ==
            # cache_hits + measured + quarantined, per (kernel, gpu)
            lbl = {"kernel": benchmark.name, "gpu": gpu.name}
            obs.add("engine.points", stats.total, **lbl)
            obs.add("engine.cache_hits", hits, **lbl)
            obs.add("engine.measured", stats.measured, **lbl)
            obs.add("engine.quarantined", quarantined, **lbl)
            obs.add("engine.retries", stats.retries, **lbl)
            obs.add("engine.recovered", stats.recovered, **lbl)
            obs.add("engine.corrupt_payloads", stats.corrupt, **lbl)
            obs.add("engine.runs", 1, **lbl)
            obs.observe("engine.run_seconds", stats.elapsed_s, **lbl)
        return results
