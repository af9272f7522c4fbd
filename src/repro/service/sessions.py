"""The session manager: many concurrent ask/tell strategies, one fleet.

A *session* is one strategy instance (:class:`~repro.autotune.search.base.Search`)
plus its request context.  Two modes:

- **managed** -- the server drives the exact loop
  :meth:`Search.search() <repro.autotune.search.base.Search.search>`
  runs in-process (reset -> ask -> measure -> tell -> ... -> result),
  with the measurement step routed through the
  :class:`~repro.service.fleet.WorkerFleet`.  Because the loop, the
  strategy code, the engine, and the deterministic timing model are all
  shared with the library path, a managed session's
  :class:`~repro.api.protocol.SessionResult` is byte-identical to
  :func:`repro.api.tune` of the same request.
- **external** -- the server only hosts the strategy: the client pulls
  :class:`~repro.api.protocol.AskBatch` es, measures on its own
  hardware, and pushes :class:`~repro.api.protocol.TellResult` s.

Observability: each session records a deterministic ``session`` span
(ID derived from the session id via
:func:`repro.obs.trace.child_id`) with one ``round`` span per ask/tell
round; the fleet's engine spans parent under the round span.  Spans are
recorded through :func:`repro.obs.record_span` when each unit finishes,
so a trace exported at shutdown validates even with sessions mid-flight.
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
        self._pending_round: int | None = None
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
        self._record_session_span()
        obs.add("service.sessions_finished", state=state)

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

    def __init__(self, fleet, max_sessions: int = 1024,
                 on_session_finished=None):
        self.fleet = fleet
        self.max_sessions = max_sessions
        self.on_session_finished = on_session_finished
        """Optional callback run after each session reaches a terminal
        state (the server hooks its store-eviction pass here)."""
        self._sessions: dict[str, Session] = {}
        self._counter = itertools.count(1)
        self._drivers: set[asyncio.Task] = set()

    def _session_finished(self, session: Session) -> None:
        if self.on_session_finished is not None:
            try:
                self.on_session_finished(session)
            except Exception as e:  # maintenance must never fail a session
                obs.add("service.errors", where="session-finished")
                obs.instant("service.error", parent_id=session.span_id,
                            args={"where": "session-finished",
                                  "error": f"{type(e).__name__}: {e}"})

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
        session = self.get(session_id)
        if session.driver is not None and not session.driver.done():
            session.driver.cancel()
        else:
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
        """The server-side replica of ``Search.search()``'s driver loop,
        with the measurement step routed through the fleet on one
        :class:`~repro.autotune.measure.Measurer`, held while the session
        runs.  Heavy strategy work (``reset`` compiles under static
        search) runs on a worker thread."""
        from repro.autotune.measure import Measurer

        strategy = session.strategy
        measurer = Measurer(session.benchmark, session.gpu)
        size = session.request.size
        session.state = "running"
        try:
            await asyncio.to_thread(
                strategy.reset, session.space, session.request.budget
            )
            while configs := await asyncio.to_thread(strategy.ask):
                round_no = session.rounds
                start_s, t0 = time.time(), time.monotonic()
                measurements = await self.fleet.measure(
                    measurer, [(config, size) for config in configs],
                    parent_span_id=session.round_span_id(round_no),
                )
                session.measurements.extend(measurements)
                strategy.tell(configs, [m.seconds for m in measurements])
                session._record_round_span(round_no, start_s, t0,
                                           len(configs))
                session.rounds += 1
            sr = strategy.result()
            session.result = SessionResult.from_search(
                session.session_id, sr,
                measurements=session.measurements,
            )
            session.finish("done")
        except asyncio.CancelledError:
            session.finish("cancelled")
            raise
        except Exception as e:
            session.finish("failed", ErrorEnvelope(
                code="session-failed",
                message=f"{type(e).__name__}: {e}",
            ))
        finally:
            self._session_finished(session)

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
            if session.finished:
                return AskBatch(
                    session_id=session_id, round=session.rounds,
                    configs=(), remaining=0, done=True,
                )
            if session._pending is not None:
                raise HttpError(
                    409, "tell-pending",
                    "the previous batch has not been answered "
                    "(one tell per ask)",
                )
            strategy = session.strategy
            if session._pending_round is None:
                # first ask: reset runs here (compiles, under static
                # search, so it goes to a worker thread)
                await asyncio.to_thread(
                    strategy.reset, session.space, session.request.budget
                )
                session._pending_round = -1
                session.state = "running"
            configs = await asyncio.to_thread(strategy.ask)
            if not configs:
                self._finalize_external(session)
                return AskBatch(
                    session_id=session_id, round=session.rounds,
                    configs=(), remaining=strategy.remaining, done=True,
                )
            session._pending = configs
            session.state = "waiting"
            return AskBatch(
                session_id=session_id, round=session.rounds,
                configs=tuple(dict(c) for c in configs),
                remaining=strategy.remaining, done=False,
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
            strategy = session.strategy
            start_s, t0 = time.time(), time.monotonic()
            strategy.tell(session._pending, list(told.values))
            session._record_round_span(session.rounds, start_s, t0,
                                       len(session._pending))
            session.rounds += 1
            session._pending = None
            # the next ask learns whether the run is over
            session.state = "waiting"
            return session.status()

    def _finalize_external(self, session: Session) -> None:
        try:
            session.result = SessionResult.from_search(
                session.session_id, session.strategy.result(),
            )
            session.finish("done")
        except ValueError as e:
            session.finish("failed", ErrorEnvelope(
                code="session-failed", message=str(e),
            ))
        self._session_finished(session)
