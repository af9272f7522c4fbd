"""``repro.client``: the SDK for a running autotuning server.

A thin, dependency-free (stdlib ``http.client``) wrapper speaking the
versioned protocol of :mod:`repro.api.protocol`.  Every method sends and
receives the same frozen dataclasses the in-process API uses::

    from repro.api import connect

    client = connect("http://127.0.0.1:8737")
    status = client.submit_tune("atax", "kepler", size=32,
                                search="random", budget=20, seed=7)
    result = client.wait(status.session_id)
    print(result.best_config, result.best_value)

External (client-measured) sessions drive ask/tell themselves::

    status = client.submit_tune(..., mode="external")
    while not (batch := client.ask(status.session_id)).done:
        client.tell(batch, [measure(c) for c in batch.configs])
    result = client.result(status.session_id)

Failures raise :class:`ServiceError` carrying the server's structured
:class:`~repro.api.protocol.ErrorEnvelope`.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse

from repro.api.protocol import (
    PROTOCOL_VERSION,
    AskBatch,
    ErrorEnvelope,
    ProtocolError,
    ServerInfo,
    SessionResult,
    SessionStatus,
    SpaceSpec,
    StoreStats,
    TellResult,
    TuneRequest,
)

__all__ = ["ReproClient", "ServiceError", "connect"]

_PROTOCOL_HEADER = "X-Repro-Protocol"


class ServiceError(RuntimeError):
    """The server answered with a structured error envelope."""

    def __init__(self, status: int, envelope: ErrorEnvelope):
        super().__init__(f"[{status}] {envelope.code}: {envelope.message}")
        self.status = status
        self.envelope = envelope

    @property
    def code(self) -> str:
        return self.envelope.code


class ReproClient:
    """A client bound to one server URL.

    One HTTP connection per request keeps the client trivially
    thread-safe (concurrent sessions from threads are the norm in the
    acceptance test); the server's keep-alive support exists for
    longer-lived callers.
    """

    def __init__(self, url: str, timeout: float = 300.0):
        parsed = urllib.parse.urlparse(url)
        if parsed.scheme != "http" or parsed.hostname is None:
            raise ValueError(
                f"expected an http://host:port URL, got {url!r}"
            )
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout

    # -- transport -----------------------------------------------------------

    def _request(self, method: str, path: str, body=None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = None
            headers = {_PROTOCOL_HEADER: PROTOCOL_VERSION}
            if body is not None:
                payload = json.dumps(body, allow_nan=False).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ServiceError(response.status, ErrorEnvelope(
                code="bad-response",
                message=f"server sent non-JSON ({raw[:80]!r})",
            )) from None
        if response.status != 200:
            try:
                envelope = ErrorEnvelope.from_json(doc)
            except ProtocolError:
                envelope = ErrorEnvelope(
                    code="bad-response", message=str(doc)[:200]
                )
            raise ServiceError(response.status, envelope)
        return doc

    # -- handshake -----------------------------------------------------------

    def hello(self) -> ServerInfo:
        """Handshake: fetch the server's info and verify we can speak
        its protocol (raises :class:`ProtocolError` if not)."""
        return ServerInfo.from_json(self._request("GET", "/v1/hello"))

    # -- sessions ------------------------------------------------------------

    def submit(self, request: TuneRequest) -> SessionStatus:
        return SessionStatus.from_json(
            self._request("POST", "/v1/sessions", body=request.to_json())
        )

    def submit_tune(self, kernel: str, gpu: str, size: int,
                    search: str = "exhaustive", budget: int | None = None,
                    use_rule: bool = False, mode: str = "managed",
                    space=None, tenant: str = "default",
                    **search_args) -> SessionStatus:
        """Build and submit a :class:`TuneRequest` in one call."""
        from repro.autotune.space import ParameterSpace

        if isinstance(space, ParameterSpace):
            space = SpaceSpec.from_space(space)
        return self.submit(TuneRequest(
            kernel=kernel, gpu=gpu, size=size, search=search,
            budget=budget, use_rule=use_rule, mode=mode, space=space,
            search_args=dict(search_args), tenant=tenant,
        ))

    def sessions(self) -> list[SessionStatus]:
        doc = self._request("GET", "/v1/sessions")
        return [SessionStatus.from_json(s) for s in doc.get("sessions", [])]

    def status(self, session_id: str) -> SessionStatus:
        return SessionStatus.from_json(
            self._request("GET", f"/v1/sessions/{session_id}")
        )

    def result(self, session_id: str) -> SessionResult:
        return SessionResult.from_json(
            self._request("GET", f"/v1/sessions/{session_id}/result")
        )

    def cancel(self, session_id: str) -> SessionStatus:
        return SessionStatus.from_json(
            self._request("POST", f"/v1/sessions/{session_id}/cancel")
        )

    def wait(self, session_id: str, timeout: float = 300.0,
             poll_s: float = 0.05) -> SessionResult:
        """Poll a managed session until it finishes; return its result.

        A failed or cancelled session raises :class:`ServiceError` with
        the session's envelope.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(session_id)
            if status.state == "done":
                return self.result(session_id)
            if status.state in ("failed", "cancelled"):
                raise ServiceError(409, status.error or ErrorEnvelope(
                    code=status.state,
                    message=f"session {session_id} {status.state}",
                ))
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"session {session_id} still {status.state} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll_s)

    # -- external (client-measured) sessions ---------------------------------

    def ask(self, session_id: str) -> AskBatch:
        return AskBatch.from_json(
            self._request("POST", f"/v1/sessions/{session_id}/ask")
        )

    def tell(self, batch: AskBatch, values) -> SessionStatus:
        told = TellResult(
            session_id=batch.session_id, round=batch.round,
            values=tuple(float(v) for v in values),
        )
        return SessionStatus.from_json(self._request(
            "POST", f"/v1/sessions/{batch.session_id}/tell",
            body=told.to_json(),
        ))

    def run_external(self, session_id: str, measure) -> SessionResult:
        """Drive an external session to completion with a local
        ``measure(config) -> seconds`` callable."""
        while not (batch := self.ask(session_id)).done:
            self.tell(batch, [measure(dict(c)) for c in batch.configs])
        return self.result(session_id)

    # -- store ---------------------------------------------------------------

    def store_stats(self) -> StoreStats:
        return StoreStats.from_json(self._request("GET", "/v1/store"))

    def flush_store(self) -> StoreStats:
        """Ask the server to checkpoint the shared store's WAL."""
        return StoreStats.from_json(
            self._request("POST", "/v1/store/flush")
        )

    # -- convenience ---------------------------------------------------------

    def tune(self, kernel: str, gpu: str, size: int,
             search: str = "exhaustive", budget: int | None = None,
             use_rule: bool = False, space=None, timeout: float = 300.0,
             **search_args) -> SessionResult:
        """Submit a managed session and block until its result."""
        status = self.submit_tune(
            kernel, gpu, size, search=search, budget=budget,
            use_rule=use_rule, space=space, **search_args,
        )
        return self.wait(status.session_id, timeout=timeout)


def connect(url: str, timeout: float = 300.0,
            handshake: bool = True) -> ReproClient:
    """A :class:`ReproClient` for ``url``; verifies the protocol
    handshake unless ``handshake=False``."""
    client = ReproClient(url, timeout=timeout)
    if handshake:
        client.hello()
    return client
