"""The session manager: many concurrent ask/tell strategies, one fleet.

A *session* is one strategy instance (:class:`~repro.autotune.search.base.Search`)
plus its request context.  Both modes run one round step --
:meth:`Session.next_batch` (reset on the first call, then ask; an empty
batch finishes the session with its result) and :meth:`Session.answer`
(tell, closing the round) -- the loop
:meth:`Search.search() <repro.autotune.search.base.Search.search>` runs
in-process.  What differs is who measures:

- **managed** -- the server answers each batch from the
  :class:`~repro.service.fleet.WorkerFleet`.  Because the loop, the
  strategy code, the engine, and the deterministic timing model are all
  shared with the library path, a managed session's
  :class:`~repro.api.protocol.SessionResult` is byte-identical to
  :func:`repro.api.tune` of the same request.
- **external** -- the client pulls
  :class:`~repro.api.protocol.AskBatch` es, measures on its own
  hardware, and pushes :class:`~repro.api.protocol.TellResult` s.

Observability: each session records a deterministic ``session`` span
(ID derived from the session id via
:func:`repro.obs.trace.child_id`) with one ``round`` span per round,
from the ask to the tell; the fleet's engine spans parent under the
round span.  Spans are recorded through :func:`repro.obs.record_span`
when each unit finishes, so a trace exported at shutdown validates even
with sessions mid-flight.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from repro import obs
from repro.api.local import resolve_request
from repro.api.protocol import (
    AskBatch,
    ErrorEnvelope,
    SessionResult,
    SessionStatus,
    TellResult,
    TuneRequest,
)
from repro.obs.trace import ROOT, child_id
from repro.service.http import HttpError

__all__ = ["Session", "SessionManager"]


class Session:
    """One tuning session: request context + live strategy state."""

    def __init__(self, session_id: str, request: TuneRequest,
                 benchmark, gpu, space, strategy):
        self.session_id = session_id
        self.request = request
        self.benchmark = benchmark
        self.gpu = gpu
        self.space = space
        self.strategy = strategy
        self.state = "pending"
        self.rounds = 0
        self.measurements: list = []
        """Every variant measured for this session, in evaluation order
        (empty for external sessions -- the client measured)."""
        self.driver: asyncio.Task | None = None
        self.error: ErrorEnvelope | None = None
        self.result: SessionResult | None = None
        self.started_s = time.time()
        self._t0 = time.monotonic()
        self._lock = asyncio.Lock()
        """External-mode ask/tell must serialize: the strategy is not
        reentrant."""
        self._pending: list | None = None
        """The batch asked and not yet answered."""
        self._asked: tuple | None = None
        """When the latest batch was asked (``time.time()``,
        ``time.monotonic()``); ``None`` until the strategy is reset."""
        self.span_id = child_id(ROOT, "session", session_id)
        """Deterministic root of this session's trace subtree."""

    # -- observability --------------------------------------------------------

    def round_span_id(self, round_no: int) -> str:
        return child_id(self.span_id, "round", round_no)

    def _record_round_span(self, round_no: int, start_s: float,
                           t0: float, batch: int) -> None:
        obs.record_span(
            self.round_span_id(round_no), self.span_id, "round", round_no,
            start_s, time.monotonic() - t0,
            args={"strategy": self.strategy.name, "batch": batch},
        )
        obs.add("service.rounds", strategy=self.strategy.name)

    def _record_session_span(self) -> None:
        obs.record_span(
            self.span_id, ROOT, "session", self.session_id,
            self.started_s, time.monotonic() - self._t0,
            args={
                "kernel": self.request.kernel,
                "gpu": self.request.gpu,
                "strategy": self.strategy.name,
                "mode": self.request.mode,
                "state": self.state,
                "rounds": self.rounds,
            },
        )

    # -- lifecycle ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def finish(self, state: str, error: ErrorEnvelope | None = None) -> None:
        if self.finished:
            return
        self.state = state
        self.error = error
        self._pending = None  # a finished session takes no tell
        self._record_session_span()
        obs.add("service.sessions_finished", state=state)

    def fail(self, error: Exception) -> None:
        self.finish("failed", ErrorEnvelope(
            code="session-failed",
            message=f"{type(error).__name__}: {error}",
        ))

    # -- the round step -------------------------------------------------------

    async def next_batch(self) -> list:
        """The strategy's next batch to measure, asked on a worker thread
        (the first call resets the strategy there too: ``reset`` compiles
        under static search).  An empty batch ends the run: the session
        finishes ``done`` with its result."""
        strategy = self.strategy
        if self._asked is None:
            self.state = "running"
            await asyncio.to_thread(
                strategy.reset, self.space, self.request.budget
            )
        self._asked = (time.time(), time.monotonic())
        configs = await asyncio.to_thread(strategy.ask)
        if self.finished:  # cancelled while the strategy was asked
            return []
        if configs:
            self._pending = configs
            return configs
        self.result = SessionResult.from_search(
            self.session_id, strategy.result(),
            measurements=self.measurements,
        )
        self.finish("done")
        return configs

    def answer(self, values, measurements=()) -> None:
        """Tell the strategy the pending batch's values (and keep the
        fleet's ``measurements`` of it), closing the round."""
        configs = self._pending
        self.strategy.tell(configs, list(values))
        self._pending = None
        self.measurements.extend(measurements)
        start_s, t0 = self._asked
        self._record_round_span(self.rounds, start_s, t0, len(configs))
        self.rounds += 1

    # -- progress snapshots ---------------------------------------------------

    def status(self) -> SessionStatus:
        # evaluations exist once reset() ran (pending sessions: not yet)
        evaluations = getattr(self.strategy, "evaluations", 0)
        best_config, best_value = None, None
        if evaluations:
            sr = self.strategy.result()
            best_config, best_value = sr.best_config, sr.best_value
        return SessionStatus(
            session_id=self.session_id,
            state=self.state,
            kernel=self.request.kernel,
            gpu=self.request.gpu,
            size=self.request.size,
            search=self.request.search,
            mode=self.request.mode,
            rounds=self.rounds,
            evaluations=evaluations,
            best_value=best_value,
            best_config=best_config,
            error=self.error,
        )


class SessionManager:
    """Creates, drives, and indexes sessions over one shared fleet.

    At most ``max_sessions`` unfinished sessions run at once, and at most
    ``max_sessions`` finished ones are kept for their clients to fetch;
    older finished sessions are dropped as new ones arrive.
    """

    def __init__(self, fleet, max_sessions: int = 1024):
        self.fleet = fleet
        self.max_sessions = max_sessions
        self._sessions: dict[str, Session] = {}
        self._counter = itertools.count(1)
        self._drivers: set[asyncio.Task] = set()

    # -- registry -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def all(self) -> list[Session]:
        return list(self._sessions.values())

    def get(self, session_id: str) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise HttpError(
                404, "unknown-session", f"no such session: {session_id!r}"
            )
        return session

    # -- creation -------------------------------------------------------------

    def create(self, request: TuneRequest) -> Session:
        """Validate a request, instantiate its strategy, register the
        session, and (managed mode) start its driver task."""
        finished = [sid for sid, s in self._sessions.items() if s.finished]
        if len(self._sessions) - len(finished) >= self.max_sessions:
            raise HttpError(
                409, "too-many-sessions",
                f"server at its session cap ({self.max_sessions})",
            )
        for sid in finished[:max(len(finished) - self.max_sessions, 0)]:
            del self._sessions[sid]
        benchmark, gpu, space = resolve_request(request)
        if space is None:
            space = benchmark.default_space()
        from repro.autotune.tuner import Autotuner

        tuner = Autotuner(benchmark, gpu, space=space)
        strategy = tuner.make_search(
            request.search, use_rule=request.use_rule, size=request.size,
            **dict(request.search_args),
        )
        session_id = f"s{next(self._counter):04d}-{request.tenant}"
        session = Session(session_id, request, benchmark, gpu, space,
                          strategy)
        self._sessions[session_id] = session
        obs.add("service.sessions", mode=request.mode,
                strategy=strategy.name)
        if request.mode == "managed":
            task = asyncio.create_task(
                self._drive(session), name=f"session-{session_id}"
            )
            session.driver = task
            self._drivers.add(task)
            task.add_done_callback(self._drivers.discard)
        else:
            # external sessions start on the first ask
            session.state = "waiting"
        return session

    def cancel(self, session_id: str) -> Session:
        """Cancel a session (its driver too, if managed) and answer with
        its state: ``cancelled`` unless it had already finished."""
        session = self.get(session_id)
        if session.driver is not None:
            session.driver.cancel()
        session.finish("cancelled")
        return session

    async def shutdown(self) -> None:
        """Cancel every driver; mark unfinished sessions cancelled (which
        records their spans, keeping an exported trace parent-complete)."""
        for task in list(self._drivers):
            task.cancel()
        if self._drivers:
            await asyncio.gather(*self._drivers, return_exceptions=True)
        for session in self._sessions.values():
            session.finish("cancelled")

    # -- managed mode ---------------------------------------------------------

    async def _drive(self, session: Session) -> None:
        """Answer each of the session's batches from the fleet, on one
        :class:`~repro.autotune.measure.Measurer` held while the session
        runs."""
        from repro.autotune.measure import Measurer

        measurer = Measurer(session.benchmark, session.gpu)
        size = session.request.size
        try:
            while configs := await session.next_batch():
                measurements = await self.fleet.measure(
                    measurer, [(config, size) for config in configs],
                    parent_span_id=session.round_span_id(session.rounds),
                )
                session.answer([m.seconds for m in measurements],
                               measurements)
        except asyncio.CancelledError:
            session.finish("cancelled")
            raise
        except Exception as e:
            session.fail(e)

    # -- external mode --------------------------------------------------------

    def _require_external(self, session: Session) -> None:
        if session.request.mode != "external":
            raise HttpError(
                409, "managed-session",
                f"session {session.session_id} is managed; "
                "poll its status and result instead of ask/tell",
            )

    async def ask(self, session_id: str) -> AskBatch:
        """The next proposal batch of an external session."""
        session = self.get(session_id)
        self._require_external(session)
        async with session._lock:
            configs, remaining = [], 0
            if not session.finished:
                if session._pending is not None:
                    raise HttpError(
                        409, "tell-pending",
                        "the previous batch has not been answered "
                        "(one tell per ask)",
                    )
                try:
                    configs = await session.next_batch()
                except Exception as e:
                    session.fail(e)
                else:
                    remaining = session.strategy.remaining
            if configs:
                session.state = "waiting"
            return AskBatch(
                session_id=session_id, round=session.rounds,
                configs=tuple(dict(c) for c in configs),
                remaining=remaining, done=not configs,
            )

    async def tell(self, session_id: str, told: TellResult) -> SessionStatus:
        """Answer an external session's pending batch."""
        session = self.get(session_id)
        self._require_external(session)
        async with session._lock:
            if session._pending is None:
                raise HttpError(
                    409, "no-pending-ask", "tell without a pending ask"
                )
            if told.round != session.rounds:
                raise HttpError(
                    409, "round-mismatch",
                    f"tell answers round {told.round} but round "
                    f"{session.rounds} is pending",
                )
            if len(told.values) != len(session._pending):
                raise HttpError(
                    400, "batch-mismatch",
                    f"{len(session._pending)} configurations were asked "
                    f"but {len(told.values)} values were told",
                )
            session.answer(told.values)
            return session.status()
