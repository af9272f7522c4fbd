"""Supervised process execution of measurement shards.

Each task is ``(measurer, shard)``: the caller's
:class:`~repro.autotune.measure.Measurer` and a shard of
:class:`~repro.engine.work.WorkItem`.  Inline shards run on that
measurer itself; a worker process rebuilds a fresh one from its pickle
for each task, and its modules and count forms come from the worker's
process-wide caches, so every shard of one kernel and GPU -- every
round of a search -- compiles each module and counts each region tree
once per worker.  Workers return ``(item index, measurement)`` pairs;
ordering is restored by the engine, never by arrival time.

Unlike a bare ``Pool.imap_unordered``, execution here is *supervised*
(see :mod:`repro.engine.resilience`): every shard runs in a dedicated
worker process with its own result pipe, so the supervisor attributes
failures exactly --

- a worker that dies mid-shard (OOM-kill, ``os._exit``) surfaces as EOF
  on its pipe and is respawned; the shard is retried with backoff;
- a shard that outlives the policy deadline has its worker killed and
  is retried likewise;
- an exception inside ``evaluate_shard`` travels back as a structured
  error and is retried;
- a shard that exhausts its retry budget is *bisected* -- split in two
  to isolate the poison item, each half with a fresh budget -- until a
  single offending item is quarantined as a
  :class:`~repro.engine.resilience.ShardFailure` instead of aborting
  the sweep;
- if the parallel path fails outright (workers cannot be spawned at
  all), the run degrades to inline execution with a warning.

Workers persist across ``run`` calls -- a search-heavy run (fig6)
issues one small batch per tuning step, and re-forking workers for each
would dominate the work.  ``close`` shuts them down cleanly (sentinel +
``join``); ``terminate`` is reserved for the fault paths.  With
``jobs=1`` (or a single shard) everything runs inline in the calling
process: no workers, no pickling, identical results -- but the same
retry/bisection supervision.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from collections import deque
from multiprocessing.connection import wait as _wait_ready

from repro import obs
from repro.engine import chaos
from repro.engine.resilience import (
    DEFAULT_POLICY,
    AttemptRecord,
    ExecutorReport,
    RetryPolicy,
    ShardFailure,
)
from repro.engine.work import split_shard
from repro.obs.trace import child_id


def resolve_jobs(jobs: int | None) -> int:
    """``None``/``0`` means one worker per CPU; negatives are an error."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def shard_indices(shard) -> tuple:
    """The work-item indices of a shard (its identity in fault records
    and chaos rolls)."""
    return tuple(item.index for item in shard)


def evaluate_shard(task, attempt: int = 0) -> list:
    """Measure one ``(measurer, shard)`` task; the entry point both
    workers and the inline path run.

    Inline, ``measurer`` is the caller's own; a worker receives a fresh
    one rebuilt from its pickle
    (:meth:`~repro.autotune.measure.Measurer.__reduce__`).  Either way
    its modules and count forms come from the process's caches.
    ``attempt`` is the supervisor's 0-based retry count, consulted only
    by the chaos harness.
    """
    measurer, shard = task
    chaos.maybe_inject(shard_indices(shard), attempt)
    if obs.tracer is not None:
        # one measurement span per work item, parented under the ambient
        # attempt span -- the item index keys the (deterministic) ID, so
        # a worker-side span equals the inline-path span exactly
        measurements = []
        for item in shard:
            with obs.span("measure", key=item.index,
                          args={"size": item.size}):
                measurements.extend(
                    measurer.measure_many([(item.config, item.size)])
                )
    else:
        measurements = measurer.measure_many(
            [(item.config, item.size) for item in shard]
        )
    return [
        (item.index, m) for item, m in zip(shard, measurements)
    ]


def _worker_main(conn) -> None:
    """Worker loop: receive ``(tid, attempt, task, trace_parent)``, send
    back ``(tid, "ok", pairs, spans)`` or ``(tid, "error", message,
    spans)``; a ``None`` message (or a closed pipe) is the
    clean-shutdown sentinel.

    ``trace_parent`` is the supervisor's attempt-span ID when tracing is
    enabled (else ``None``): the worker captures its measurement spans
    and chaos instants under it and ships the buffer with the reply --
    on *both* outcomes, so a chaos-raise's instant survives.  A killed
    worker never replies; its buffer dies with it, which is why
    determinism guarantees exclude instants.
    """
    chaos.mark_worker()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if msg is None:
            break
        tid, attempt, task, trace_parent = msg
        cap = (obs.begin_capture(trace_parent)
               if trace_parent is not None else None)
        try:
            pairs = evaluate_shard(task, attempt)
        except BaseException as e:  # report, don't die: the pipe is the contract
            kind, payload = "error", f"{type(e).__name__}: {e}"
        else:
            kind, payload = "ok", pairs
        buffer = (obs.end_capture(cap)
                  if trace_parent is not None else None)
        try:
            conn.send((tid, kind, payload, buffer))
        except (OSError, BrokenPipeError):
            break
    try:
        conn.close()
    except OSError:
        pass


class _WorkerHandle:
    """One supervised worker process and its result pipe."""

    __slots__ = ("proc", "conn", "tid", "started_at")

    def __init__(self):
        parent_conn, child_conn = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(
            target=_worker_main, args=(child_conn,), daemon=True,
        )
        self.proc.start()
        # Drop our copy of the child end: a dead worker must surface as
        # EOF on `conn`, which requires no live handle to its peer here.
        child_conn.close()
        self.conn = parent_conn
        self.tid = None
        self.started_at = 0.0


class _TaskState:
    """A shard task's supervision state across attempts."""

    __slots__ = (
        "tid", "task", "attempts", "eligible_at", "origin",
        "span_parent", "shard_span_id", "span_start_wall",
        "span_start_perf", "attempt_start_wall",
    )

    def __init__(self, tid, task, origin=None, span_parent=""):
        self.tid = tid
        self.task = task
        self.attempts = []  # AttemptRecord per failed attempt
        self.eligible_at = 0.0
        self.origin = origin if origin is not None else len(task[1])
        self.span_parent = span_parent
        # the shard span's deterministic identity: a pure function of
        # the parent span and the item indices, so jobs=1 and jobs=N
        # produce the same tree; bisection children parent under the
        # shard they split from
        self.shard_span_id = (
            child_id(span_parent, "shard", list(shard_indices(task[1])))
            if obs.tracer is not None else ""
        )
        self.span_start_wall = 0.0
        self.span_start_perf = 0.0
        self.attempt_start_wall = 0.0

    @property
    def shard(self):
        return self.task[1]

    def attempt_span_id(self) -> str | None:
        """The deterministic ID of the *next* attempt's span (``None``
        when tracing is off) -- sent to workers as their capture parent
        and used inline as the ambient parent."""
        if obs.tracer is None:
            return None
        return child_id(self.shard_span_id, "attempt", len(self.attempts))

    def mark_dispatch(self) -> None:
        """Stamp wall/perf clocks as an attempt starts executing."""
        if obs.tracer is None:
            return
        self.attempt_start_wall = time.time()
        if self.span_start_wall == 0.0:
            self.span_start_wall = self.attempt_start_wall
            self.span_start_perf = time.perf_counter()


class _ParallelPathFailed(Exception):
    """No worker could be spawned; carries the unfinished task states."""

    def __init__(self, remaining, cause):
        super().__init__(str(cause))
        self.remaining = remaining
        self.cause = cause


class PoolExecutor:
    """Runs shard tasks across persistent, supervised worker processes.

    ``policy`` is the :class:`~repro.engine.resilience.RetryPolicy`
    governing deadlines, retries, backoff, and bisection; the default
    retries 3 times with no deadline.  Workers are created on first
    parallel use and reused across calls; ``close`` releases them (the
    executor remains usable afterwards -- new workers spawn on demand).
    ``last_report`` holds the :class:`ExecutorReport` of the most recent
    ``run``.
    """

    def __init__(self, jobs: int | None = None,
                 policy: RetryPolicy | None = None):
        self.jobs = resolve_jobs(jobs)
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self._workers: list = []
        self._next_tid = 0
        self.last_report: ExecutorReport | None = None

    # -- public entry point --------------------------------------------------

    def run(self, tasks, progress=None, on_shard_done=None) -> list:
        """Evaluate every task, returning all ``(index, measurement)``
        pairs.

        ``on_shard_done(task, pairs)`` fires as each shard completes --
        the engine's incremental-checkpoint hook -- followed by
        ``progress.advance``.  Faults are retried/quarantined per the
        policy; accounting lands in ``self.last_report``.
        """
        tasks = list(tasks)
        report = ExecutorReport()
        self.last_report = report
        out: list = []

        def emit(task, pairs):
            out.extend(pairs)
            if on_shard_done is not None:
                on_shard_done(task, pairs)
            if progress is not None:
                progress.advance(len(pairs))

        span_parent = obs.current_parent_id()
        states = [
            self._make_state(task, span_parent=span_parent)
            for task in tasks
        ]
        if self.jobs <= 1 or len(tasks) <= 1:
            self._run_states_inline(states, emit, report)
            return out
        try:
            self._run_parallel(states, emit, report)
        except _ParallelPathFailed as fail:
            warnings.warn(
                f"parallel sweep path unavailable ({fail.cause!r}); "
                "degrading to inline execution",
                RuntimeWarning, stacklevel=2,
            )
            report.degraded = True
            self._run_states_inline(fail.remaining, emit, report)
        return out

    # -- shared supervision logic --------------------------------------------

    def _make_state(self, task, origin=None, span_parent="") -> _TaskState:
        state = _TaskState(
            self._next_tid, task, origin=origin, span_parent=span_parent,
        )
        self._next_tid += 1
        return state

    def _record_attempt(self, state, fate, elapsed, error=None) -> None:
        """Record this attempt's span (deterministic ID; the fate and
        error ride in args only, since a chaos kill surfaces as
        ``raised`` inline but ``worker-died`` in parallel).  Must run
        *before* the failure record is appended so the attempt number
        matches :meth:`_TaskState.attempt_span_id`."""
        if obs.tracer is None:
            return
        n = len(state.attempts)
        args = {"fate": fate}
        if error is not None:
            args["error"] = error
        obs.record_span(
            child_id(state.shard_span_id, "attempt", n),
            state.shard_span_id, "attempt", n,
            state.attempt_start_wall, elapsed, args=args,
        )
        if fate != "ok":
            obs.instant(
                f"fault.{fate}",
                parent_id=child_id(state.shard_span_id, "attempt", n),
                args={"shard": list(shard_indices(state.shard))},
            )
            obs.add("pool.faults", fate=fate)

    def _record_shard(self, state, outcome) -> None:
        """Close the shard's span when supervision of it ends (success,
        bisection into halves, or quarantine)."""
        if obs.tracer is None:
            return
        obs.record_span(
            state.shard_span_id, state.span_parent, "shard",
            list(shard_indices(state.shard)),
            state.span_start_wall,
            time.perf_counter() - state.span_start_perf,
            args={"outcome": outcome, "items": len(state.shard)},
        )

    def _handle_success(self, state, pairs, emit, report) -> None:
        self._record_attempt(
            state, "ok", time.time() - state.attempt_start_wall,
        )
        self._record_shard(state, "ok")
        if state.attempts or state.origin > len(state.shard):
            report.recovered += 1
            obs.add("pool.recovered_shards")
        emit(state.task, pairs)

    def _handle_failure(self, state, fate, error, elapsed, report,
                        now) -> list:
        """Record one failed attempt; return the task states to requeue
        (the same state on retry, two halves on bisection, none on
        quarantine)."""
        self._record_attempt(state, fate, elapsed, error=error)
        rec = AttemptRecord(
            attempt=len(state.attempts), fate=fate, error=error,
            elapsed_s=elapsed,
        )
        state.attempts.append(rec)
        report.events.append((shard_indices(state.shard), rec))
        if len(state.attempts) < self.policy.max_attempts:
            report.retries += 1
            obs.add("pool.retries")
            state.eligible_at = now + self.policy.backoff(
                len(state.attempts), shard_indices(state.shard)
            )
            return [state]
        if len(state.shard) > 1:
            # poison-shard bisection: isolate the offending item
            self._record_shard(state, "bisected")
            obs.add("pool.bisections")
            children = []
            for half in split_shard(state.shard):
                child = self._make_state(
                    (state.task[0], half), origin=state.origin,
                    span_parent=state.shard_span_id,
                )
                child.eligible_at = now + self.policy.backoff(
                    len(state.attempts), shard_indices(half)
                )
                children.append(child)
            report.retries += len(children)
            obs.add("pool.retries", len(children))
            return children
        self._record_shard(state, "quarantined")
        obs.add("pool.quarantined_items", len(state.shard))
        report.failures.append(ShardFailure(
            indices=shard_indices(state.shard),
            attempts=tuple(state.attempts),
            bisected_from=state.origin,
        ))
        return []

    # -- inline path ---------------------------------------------------------

    def _run_states_inline(self, states, emit, report) -> None:
        queue = deque(sorted(states, key=lambda s: s.tid))
        while queue:
            state = queue.popleft()
            now = time.monotonic()
            if state.eligible_at > now:
                time.sleep(state.eligible_at - now)
            state.mark_dispatch()
            t0 = time.monotonic()
            try:
                # the ambient attempt ID makes inline measure spans
                # parent exactly like worker-captured ones
                with obs.attach(state.attempt_span_id() or ""):
                    pairs = evaluate_shard(state.task, len(state.attempts))
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as e:
                queue.extend(self._handle_failure(
                    state, "raised", f"{type(e).__name__}: {e}",
                    time.monotonic() - t0, report, time.monotonic(),
                ))
            else:
                self._handle_success(state, pairs, emit, report)

    # -- parallel path -------------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        return _WorkerHandle()

    def _discard_worker(self, worker, kill: bool = False) -> None:
        """Remove a worker; ``kill`` terminates it (the fault path),
        otherwise it is already dead and only needs reaping."""
        if worker in self._workers:
            self._workers.remove(worker)
        if kill and worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _run_parallel(self, states, emit, report) -> None:
        pending = list(states)   # waiting (or backing off)
        inflight: dict = {}      # tid -> _TaskState
        try:
            while pending or inflight:
                now = time.monotonic()
                # reap workers that died while idle
                for w in list(self._workers):
                    if w.tid is None and not w.proc.is_alive():
                        self._discard_worker(w)
                # top up the fleet while there is assignable work
                eligible = sorted(
                    (s for s in pending if s.eligible_at <= now),
                    key=lambda s: s.tid,
                )
                idle = [w for w in self._workers if w.tid is None]
                spawn = min(
                    max(0, len(eligible) - len(idle)),
                    self.jobs - len(self._workers),
                )
                for _ in range(spawn):
                    try:
                        self._workers.append(self._spawn_worker())
                        obs.add("pool.worker_spawns")
                    except OSError as e:
                        if not self._workers and not inflight:
                            raise _ParallelPathFailed(
                                pending, e
                            ) from e
                        break
                # assign eligible tasks to idle workers, tid order
                idle = [w for w in self._workers if w.tid is None]
                for worker, state in zip(idle, eligible):
                    try:
                        worker.conn.send((
                            state.tid, len(state.attempts), state.task,
                            state.attempt_span_id(),
                        ))
                    except (OSError, ValueError):
                        self._discard_worker(worker)
                        continue
                    worker.tid = state.tid
                    worker.started_at = now
                    state.mark_dispatch()
                    inflight[state.tid] = state
                    pending.remove(state)
                obs.set_gauge(
                    "pool.queue_depth", len(pending) + len(inflight)
                )

                busy = {
                    w.conn: w for w in self._workers if w.tid is not None
                }
                if not busy:
                    if pending:
                        wake = min(s.eligible_at for s in pending)
                        time.sleep(min(
                            max(wake - time.monotonic(), 0.001),
                            self.policy.poll_interval_s,
                        ))
                        continue
                    continue  # inflight empty too -> loop exits
                for conn in _wait_ready(
                    list(busy), timeout=self.policy.poll_interval_s
                ):
                    worker = busy[conn]
                    now = time.monotonic()
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        # worker death (OOM-kill / os._exit / crash);
                        # its capture buffer died with it
                        state = inflight.pop(worker.tid)
                        elapsed = now - worker.started_at
                        self._discard_worker(worker)
                        obs.add("pool.worker_deaths")
                        pending.extend(self._handle_failure(
                            state, "worker-died",
                            f"worker exited with code "
                            f"{worker.proc.exitcode}",
                            elapsed, report, now,
                        ))
                        continue
                    tid, kind, payload, buffer = msg
                    obs.absorb(buffer)
                    state = inflight.pop(tid)
                    worker.tid = None
                    if kind == "ok":
                        self._handle_success(state, payload, emit, report)
                    else:
                        pending.extend(self._handle_failure(
                            state, "raised", payload,
                            now - worker.started_at, report, now,
                        ))
                # per-shard deadlines: kill and retry hung workers
                if self.policy.shard_timeout_s is not None:
                    now = time.monotonic()
                    for worker in list(self._workers):
                        if worker.tid is None:
                            continue
                        elapsed = now - worker.started_at
                        if elapsed <= self.policy.shard_timeout_s:
                            continue
                        state = inflight.pop(worker.tid)
                        self._discard_worker(worker, kill=True)
                        pending.extend(self._handle_failure(
                            state, "timeout",
                            f"shard exceeded its "
                            f"{self.policy.shard_timeout_s}s deadline",
                            elapsed, report, now,
                        ))
        except _ParallelPathFailed:
            raise
        except BaseException:
            # leave no half-assigned workers behind (KeyboardInterrupt,
            # unexpected supervisor errors): fault-path teardown
            self._abort()
            raise

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: sentinel + ``join`` per worker; ``terminate``
        only for stragglers that ignore the sentinel."""
        workers, self._workers = self._workers, []
        for w in workers:
            try:
                if w.proc.is_alive():
                    w.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for w in workers:
            w.proc.join(timeout=5.0)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=5.0)
            try:
                w.conn.close()
            except OSError:
                pass

    def _abort(self) -> None:
        """Fault-path teardown: terminate everything immediately."""
        workers, self._workers = self._workers, []
        for w in workers:
            try:
                if w.proc.is_alive():
                    w.proc.terminate()
            except Exception:
                pass
        for w in workers:
            try:
                w.proc.join(timeout=1.0)
                w.conn.close()
            except Exception:
                pass

    def __del__(self):
        # Interpreter teardown may have dismantled arbitrary module
        # state, so this must not call into close()'s pipe machinery:
        # check liveness and terminate stragglers, swallowing everything.
        workers = getattr(self, "_workers", None) or []
        self._workers = []
        for w in workers:
            proc = getattr(w, "proc", None)
            try:
                if proc is not None and proc.is_alive():
                    proc.terminate()
            except Exception:
                pass
