"""The worker fleet: a thread pool of engines over the shared store.

Every managed session turns each ask/tell round into one *measurement
job* -- a ``(measurer, [(config, size), ...])`` batch on the session's
own :class:`~repro.autotune.measure.Measurer`, so its compiled modules
serve every round.  Jobs from all sessions go to one
:class:`~concurrent.futures.ThreadPoolExecutor` of ``drainers`` threads;
each thread builds its own supervised
:class:`~repro.engine.engine.SweepEngine` over the *shared*
:class:`~repro.service.store.MeasurementStore` on its first job.  The
event loop never blocks on a sweep, and measurement never waits behind
the strategy calls on the loop's default executor.  A queued job whose
session is cancelled never runs; :meth:`WorkerFleet.stop` waits for the
running ones, so the store outlives its last write.

Determinism: a session submits exactly one job per round and awaits it,
so its results always come back in request order regardless of which
thread ran them or how the pool interleaved sessions -- and the
engine's own canonical-order reassembly plus the deterministic timing
model make the measurements byte-identical to a serial in-process run
(the acceptance test asserts exactly this across >=4 concurrent
sessions).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro import obs

__all__ = ["FleetError", "WorkerFleet"]


class FleetError(RuntimeError):
    """A measurement job failed (quarantined work items or a worker
    fault that supervision could not recover)."""


class WorkerFleet:
    """A pool of ``drainers`` threads, one engine each, over one shared
    measurement store.

    Parameters
    ----------
    store:
        The shared :class:`~repro.service.store.MeasurementStore` (or
        any :class:`~repro.engine.cache.CacheStore`); may be ``None``
        for a storeless fleet (everything is measured fresh).
    drainers:
        Concurrent jobs in flight (one thread and engine each).
    drainer_jobs:
        Worker *processes* per engine; the default 1 runs each job
        inline on its pool thread under full supervision.
    """

    def __init__(self, store=None, drainers: int = 2,
                 drainer_jobs: int = 1):
        if drainers < 1:
            raise ValueError("fleet needs at least one drainer")
        self.store = store
        self.drainers = int(drainers)
        self.drainer_jobs = drainer_jobs
        self._pool = ThreadPoolExecutor(
            self.drainers, thread_name_prefix="fleet-drainer"
        )
        self._local = threading.local()
        self._engines: list = []
        self._waiting: set = set()
        """Jobs submitted and not yet started (event-loop thread only)."""

    @property
    def total_measured(self) -> int:
        """Fresh measurements over the fleet's lifetime."""
        return sum(engine.total_measured for engine in self._engines)

    @property
    def total_hits(self) -> int:
        """Store hits over the fleet's lifetime."""
        return sum(engine.total_hits for engine in self._engines)

    async def stop(self) -> None:
        """Cancel the queued jobs, wait for the running ones, then
        release the engines' worker pools."""
        await asyncio.to_thread(
            self._pool.shutdown, wait=True, cancel_futures=True
        )
        for engine in self._engines:
            engine.close()

    async def measure(self, measurer, pairs,
                      parent_span_id: str = "") -> list:
        """Run one measurement batch on the session's
        :class:`~repro.autotune.measure.Measurer`; await its results
        (input order).  Raises :class:`FleetError` if any point was
        quarantined -- a session must never silently receive a partial
        batch.  Cancelling the caller before the job starts withdraws
        it."""
        loop = asyncio.get_running_loop()
        job = object()
        self._waiting.add(job)
        obs.set_gauge("service.queue_depth", len(self._waiting))
        try:
            return await loop.run_in_executor(
                self._pool, self._run_job, loop, job, measurer, pairs,
                parent_span_id,
            )
        finally:
            self._dequeue(job)

    # -- internals -----------------------------------------------------------

    def _dequeue(self, job) -> None:
        """Take ``job`` off the queue-depth gauge (event-loop thread)."""
        self._waiting.discard(job)
        obs.set_gauge("service.queue_depth", len(self._waiting))

    def _run_job(self, loop, job, measurer, pairs,
                 parent_span_id: str) -> list:
        """Run one batch through this thread's engine (pool thread),
        built on the thread's first job.

        The ambient span stack is thread-local, so the session's round
        span is attached explicitly to parent the engine's batch span.
        """
        loop.call_soon_threadsafe(self._dequeue, job)
        engine = getattr(self._local, "engine", None)
        if engine is None:
            from repro.engine import SweepEngine

            # the shared store is a CacheStore *instance*, so no engine
            # ever closes it (engines only own caches they opened)
            engine = SweepEngine(jobs=self.drainer_jobs, cache=self.store)
            self._local.engine = engine
            self._engines.append(engine)
        with obs.attach(parent_span_id):
            measurements = engine.run(measurer, pairs)
        stats = engine.last_stats
        obs.add("service.fleet_measured", stats.measured)
        obs.add("service.fleet_store_hits", stats.hits)
        if engine.last_failures:
            quarantined = sorted(
                i for f in engine.last_failures for i in f.indices
            )
            raise FleetError(
                f"{len(quarantined)} work item(s) quarantined after retry "
                f"exhaustion (batch indices {quarantined[:5]}); "
                "the session cannot receive a partial batch"
            )
        return measurements
