"""The composed autotuning service.

:class:`Server` wires the layers together -- store, fleet, session
manager, HTTP router -- on one asyncio event loop.  Three ways to run
it:

- ``await Server(...).start()`` inside an existing loop (tests);
- :class:`ThreadedServer`: the server on a daemon thread with its own
  loop (tests, examples, and notebook use);
- :func:`serve`: blocking foreground mode with SIGTERM/SIGINT shutdown
  and optional obs artifact export (what ``runner serve`` calls).

Endpoints (all JSON, prefix ``/v1``)::

    GET  /v1/hello                      protocol handshake (ServerInfo)
    POST /v1/sessions                   submit a TuneRequest -> SessionStatus
    GET  /v1/sessions                   all sessions' statuses
    GET  /v1/sessions/{sid}             one SessionStatus
    GET  /v1/sessions/{sid}/result      SessionResult (409 until done)
    POST /v1/sessions/{sid}/ask         external mode: next AskBatch
    POST /v1/sessions/{sid}/tell        external mode: answer a batch
    POST /v1/sessions/{sid}/cancel      cancel a session
    GET  /v1/store                      StoreStats
    POST /v1/store/flush                checkpoint the WAL, then StoreStats

A client may advertise its protocol version in the ``X-Repro-Protocol``
header; :func:`~repro.service.http.serve_connection` refuses an
incompatible one with 426 before any handler runs.  Bodies carry their
own ``v`` field, enforced the same way.  A connection beyond
:data:`MAX_CONNECTIONS` is answered 503 ``too-many-connections`` and
closed.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
from pathlib import Path

from repro import obs
from repro.api.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServerInfo,
    StoreStats,
    TellResult,
    TuneRequest,
    check_version,
)
from repro.service.fleet import WorkerFleet
from repro.service.http import HttpError, Router, refuse, serve_connection
from repro.service.sessions import SessionManager
from repro.service.store import MeasurementStore

__all__ = ["Server", "ThreadedServer", "serve"]

MAX_CONNECTIONS = 256
"""Connections served at once; each holds a task until its client
leaves or its request deadline passes.  One more is answered 503 and
closed."""


class Server:
    """The service: store + fleet + sessions behind the HTTP router.

    Parameters
    ----------
    cache_dir:
        Where the shared measurement store lives; ``None`` runs
        storeless (every session measures fresh -- tests mostly want a
        ``tmp_path`` here).
    max_entries:
        LRU cap for the store, held from its open on and after every
        put (``None`` = unbounded).
    drainers:
        Concurrent measurement jobs (fleet width).
    jobs:
        Worker processes per drainer engine (1 = inline, supervised).
    max_sessions:
        Cap on unfinished sessions; also how many finished sessions are
        kept for their clients to fetch.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache_dir=None, max_entries: int | None = None,
                 drainers: int = 2, jobs: int = 1,
                 max_sessions: int = 1024):
        self.host = host
        self.port = port
        self.store = (
            MeasurementStore(Path(cache_dir), max_entries=max_entries)
            if cache_dir is not None else None
        )
        self.fleet = WorkerFleet(self.store, drainers=drainers,
                                 drainer_jobs=jobs)
        self.sessions = SessionManager(self.fleet, max_sessions=max_sessions)
        self.router = self._build_router()
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            # the listener first, then every open connection: a client
            # idle mid-request would otherwise outlive the loop (3.11) or
            # hold wait_closed() until its request deadline (3.12+)
            self._server.close()
            for task in self._connections:
                task.cancel()
            await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        await self.sessions.shutdown()
        await self.fleet.stop()
        if self.store is not None:
            self.store.flush()
            self.store.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _on_connection(self, reader, writer) -> None:
        if len(self._connections) >= MAX_CONNECTIONS:
            refuse(writer, HttpError(
                503, "too-many-connections",
                f"the server is serving {MAX_CONNECTIONS} connections; "
                "retry later",
            ))
            return
        # a plain callback, so a connection's task is in the set from its
        # creation and stop() cannot miss one that has not started yet
        task = asyncio.get_running_loop().create_task(
            serve_connection(reader, writer, self.router)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    # -- routing --------------------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/v1/hello", self._hello)
        router.add("POST", "/v1/sessions", self._submit)
        router.add("GET", "/v1/sessions", self._list_sessions)
        router.add("GET", "/v1/sessions/{sid}", self._status)
        router.add("GET", "/v1/sessions/{sid}/result", self._result)
        router.add("POST", "/v1/sessions/{sid}/ask", self._ask)
        router.add("POST", "/v1/sessions/{sid}/tell", self._tell)
        router.add("POST", "/v1/sessions/{sid}/cancel", self._cancel)
        router.add("GET", "/v1/store", self._store_stats)
        router.add("POST", "/v1/store/flush", self._store_flush)
        return router

    @staticmethod
    def _parse_body(request, message_type):
        doc = request.json()
        if "v" in doc:
            try:
                check_version(doc.get("v"))
            except ProtocolError as e:
                raise HttpError(426, "protocol-mismatch", str(e)) from None
        # a ProtocolError here answers 400 protocol-error (serve_connection)
        return message_type.from_json(doc)

    # -- handlers -------------------------------------------------------------

    async def _hello(self, request):
        return ServerInfo(
            protocol=PROTOCOL_VERSION,
            sessions=len(self.sessions),
            store_entries=len(self.store) if self.store is not None else 0,
        ).to_json()

    async def _submit(self, request):
        tr = self._parse_body(request, TuneRequest)
        try:
            session = self.sessions.create(tr)
        except ProtocolError as e:
            raise HttpError(400, "bad-request", str(e)) from None
        return session.status().to_json()

    async def _list_sessions(self, request):
        return {
            "type": "session-list", "v": PROTOCOL_VERSION,
            "sessions": [
                s.status().to_json() for s in self.sessions.all()
            ],
        }

    async def _status(self, request, sid):
        return self.sessions.get(sid).status().to_json()

    async def _result(self, request, sid):
        session = self.sessions.get(sid)
        if session.state == "failed" and session.error is not None:
            raise HttpError(409, session.error.code,
                            session.error.message)
        if session.result is None:
            raise HttpError(
                409, "not-done",
                f"session {sid} is {session.state}; "
                "poll its status until it is done",
            )
        return session.result.to_json()

    async def _ask(self, request, sid):
        return (await self.sessions.ask(sid)).to_json()

    async def _tell(self, request, sid):
        told = self._parse_body(request, TellResult)
        try:
            status = await self.sessions.tell(sid, told)
        except (ValueError, RuntimeError) as e:
            raise HttpError(400, "bad-tell", str(e)) from None
        return status.to_json()

    async def _cancel(self, request, sid):
        return self.sessions.cancel(sid).status().to_json()

    async def _store_stats(self, request):
        return self._stats().to_json()

    async def _store_flush(self, request):
        if self.store is not None:
            self.store.flush()
        return self._stats().to_json()

    def _stats(self) -> StoreStats:
        store = self.store
        held = {} if store is None else dict(
            entries=len(store), hits=store.hits, misses=store.misses,
            corrupt=store.corrupt, evicted=store.evicted,
            max_entries=store.max_entries,
            schema_version=store.schema_version,
        )
        return StoreStats(
            measured=self.fleet.total_measured,
            served_from_cache=self.fleet.total_hits,
            sessions=len(self.sessions), **held,
        )


class ThreadedServer:
    """A :class:`Server` on a daemon thread with its own event loop.

    What tests and the bundled example use::

        with ThreadedServer(cache_dir=tmp) as server:
            client = connect(server.url)
            ...
    """

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self.server: Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> "ThreadedServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        stop = loop.create_future()
        self._stop_future = stop

        async def main():
            try:
                self.server = Server(**self._kwargs)
                await self.server.start()
            except BaseException as e:
                self._startup_error = e
                self._ready.set()
                return
            self._ready.set()
            await stop
            await self.server.stop()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def stop(self) -> None:
        if self._loop is None or not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(
            lambda: self._stop_future.done()
            or self._stop_future.set_result(None)
        )
        self._thread.join(timeout=30)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def serve(host: str = "127.0.0.1", port: int = 8737, cache_dir=None,
          max_entries: int | None = None, drainers: int = 2,
          jobs: int = 1, trace=None, metrics=None,
          ready_message: bool = True) -> int:
    """Run the service in the foreground until SIGTERM/SIGINT.

    ``trace``/``metrics`` enable observability and export the artifacts
    on shutdown (what CI's ``service`` job validates).  Returns the exit
    status (0 on clean shutdown).
    """
    if trace is not None or metrics is not None:
        obs.enable()

    async def main() -> int:
        server = Server(host=host, port=port, cache_dir=cache_dir,
                        max_entries=max_entries, drainers=drainers,
                        jobs=jobs)
        await server.start()
        if ready_message:
            print(f"[service] listening on {server.url} "
                  f"(protocol {PROTOCOL_VERSION})", file=sys.stderr,
                  flush=True)
        stop = asyncio.get_running_loop().create_future()

        def request_stop(signame: str) -> None:
            if not stop.done():
                stop.set_result(signame)

        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, request_stop, sig.name
                )
            except (NotImplementedError, RuntimeError):
                pass  # non-unix event loops
        signame = await stop
        print(f"[service] {signame} received; shutting down",
              file=sys.stderr, flush=True)
        await server.stop()
        return 0

    try:
        rc = asyncio.run(main())
    except KeyboardInterrupt:
        rc = 130
    finally:
        if trace is not None:
            obs.write_trace(trace)
            print(f"[obs] trace written to {trace}", file=sys.stderr)
        if metrics is not None:
            obs.write_metrics(metrics)
            print(f"[obs] metrics written to {metrics}", file=sys.stderr)
    return rc
