"""The worker fleet: N drainers consuming a shared measurement queue.

Every managed session turns each ask/tell round into one *measurement
job* -- a ``(measurer, [(config, size), ...])`` batch on the session's
own :class:`~repro.autotune.measure.Measurer`, so its compiled modules
serve every round.  Jobs from all sessions land on one
:class:`asyncio.Queue`; each of the fleet's N drainers owns a supervised
:class:`~repro.engine.engine.SweepEngine` over the *shared*
:class:`~repro.service.store.MeasurementStore` and drains jobs off the
queue on a worker thread (``asyncio.to_thread``), so the event loop
never blocks on a sweep.

Determinism: a session submits exactly one job per round and awaits it,
so its results always come back in request order regardless of which
drainer ran them or how the queue interleaved sessions -- and the
engine's own canonical-order reassembly plus the deterministic timing
model make the measurements byte-identical to a serial in-process run
(the acceptance test asserts exactly this across >=4 concurrent
sessions).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field

from repro import obs

__all__ = ["FleetError", "WorkerFleet"]


class FleetError(RuntimeError):
    """A measurement job failed (quarantined work items or a worker
    fault that supervision could not recover)."""


@dataclass
class _Job:
    measurer: object
    pairs: list
    parent_span_id: str
    future: asyncio.Future = field(repr=False, default=None)


class WorkerFleet:
    """N queue drainers over one shared measurement store.

    Parameters
    ----------
    store:
        The shared :class:`~repro.service.store.MeasurementStore` (or
        any :class:`~repro.engine.cache.CacheStore`); may be ``None``
        for a storeless fleet (everything is measured fresh).
    drainers:
        Concurrent jobs in flight (one engine each).
    drainer_jobs:
        Worker *processes* per engine; the default 1 runs each job
        inline on the drainer thread under full supervision.
    """

    def __init__(self, store=None, drainers: int = 2,
                 drainer_jobs: int = 1):
        if drainers < 1:
            raise ValueError("fleet needs at least one drainer")
        self.store = store
        self.drainers = int(drainers)
        self.drainer_jobs = drainer_jobs
        self._queue: asyncio.Queue = asyncio.Queue()
        self._tasks: list[asyncio.Task] = []
        self._engines: list = []
        self._stats_lock = threading.Lock()
        self.total_measured = 0
        """Fresh measurements over the fleet's lifetime."""
        self.total_hits = 0
        """Store hits over the fleet's lifetime."""

    @property
    def started(self) -> bool:
        return bool(self._tasks)

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    async def start(self) -> None:
        if self._tasks:
            return
        from repro.engine import SweepEngine

        for i in range(self.drainers):
            # the shared store is a CacheStore *instance*, so no engine
            # ever closes it (engines only own caches they opened)
            engine = SweepEngine(jobs=self.drainer_jobs, cache=self.store)
            self._engines.append(engine)
            self._tasks.append(
                asyncio.create_task(
                    self._drain(engine), name=f"fleet-drainer-{i}"
                )
            )

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        for engine in self._engines:
            engine.close()
        self._engines = []
        # fail anything still queued rather than stranding its waiter
        while not self._queue.empty():
            job = self._queue.get_nowait()
            if job.future is not None and not job.future.done():
                job.future.set_exception(
                    FleetError("fleet stopped before the job ran")
                )

    async def measure(self, measurer, pairs,
                      parent_span_id: str = "") -> list:
        """Enqueue one measurement batch on the session's
        :class:`~repro.autotune.measure.Measurer`; await its results
        (input order).  Raises :class:`FleetError` if any point was
        quarantined -- a session must never silently receive a partial
        batch."""
        if not self._tasks:
            raise RuntimeError("fleet is not started")
        job = _Job(
            measurer=measurer, pairs=list(pairs),
            parent_span_id=parent_span_id,
            future=asyncio.get_running_loop().create_future(),
        )
        await self._queue.put(job)
        obs.set_gauge("service.queue_depth", self._queue.qsize())
        return await job.future

    # -- internals -----------------------------------------------------------

    async def _drain(self, engine) -> None:
        while True:
            job = await self._queue.get()
            try:
                result = await asyncio.to_thread(self._run_job, engine, job)
            except asyncio.CancelledError:
                if not job.future.done():
                    job.future.set_exception(
                        FleetError("fleet stopped while the job ran")
                    )
                raise
            except BaseException as e:
                if not job.future.done():
                    job.future.set_exception(e)
            else:
                if not job.future.done():
                    job.future.set_result(result)
            finally:
                self._queue.task_done()

    def _run_job(self, engine, job: _Job) -> list:
        """Run one batch through this drainer's engine (worker thread).

        The ambient span stack is thread-local, so the session's round
        span is attached explicitly to parent the engine's batch span.
        """
        with obs.attach(job.parent_span_id):
            measurements = engine.run(job.measurer, job.pairs)
        if engine.last_failures:
            quarantined = sorted(
                i for f in engine.last_failures for i in f.indices
            )
            raise FleetError(
                f"{len(quarantined)} work item(s) quarantined after retry "
                f"exhaustion (batch indices {quarantined[:5]}); "
                "the session cannot receive a partial batch"
            )
        stats = engine.last_stats
        if stats is not None:
            with self._stats_lock:
                self.total_measured += stats.measured
                self.total_hits += stats.hits
            obs.add("service.fleet_measured", stats.measured)
            obs.add("service.fleet_store_hits", stats.hits)
        return measurements
