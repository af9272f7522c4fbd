"""Minimal HTTP/1.1 on ``asyncio.start_server`` -- no ``http.server``.

Just enough of the protocol for a JSON API: request-line + header
parsing, ``Content-Length``-framed bodies, keep-alive, and JSON
responses.  Strictness rules:

- request bodies and response bodies are JSON documents; responses are
  serialized with ``allow_nan=False`` so a non-finite float that escaped
  the protocol's string codec (:mod:`repro.api.protocol`) fails loudly
  at the transport instead of emitting invalid JSON;
- malformed requests answer a structured
  :class:`~repro.api.protocol.ErrorEnvelope`, never a bare string;
- a request whose head and body take longer than
  :data:`REQUEST_TIMEOUT_S` to arrive answers 408 and closes its connection;
- a connection the server will not serve is answered by :func:`refuse`
  (the server's connection cap answers 503);
- a request advertising an incompatible protocol version in the
  ``X-Repro-Protocol`` header is refused with 426 before its handler
  runs;
- handlers (and the session layer under them) raise :class:`HttpError`
  to produce non-200 statuses; any other exception answers 500 and is
  counted as ``service.errors{where=handler}``.

Every request read is counted as ``service.requests``; beside the
server's ``service.connections`` it shows how many requests a client
sends over each connection it keeps.
"""

from __future__ import annotations

import asyncio
import json
import re

from repro import obs
from repro.api.protocol import ErrorEnvelope, ProtocolError, check_version

__all__ = ["HttpError", "Request", "Router", "refuse", "serve_connection"]

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024
REQUEST_TIMEOUT_S = 30.0
"""How long one request's head and body may take to arrive (an idle
keep-alive connection included) before the server answers 408."""

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    426: "Upgrade Required", 500: "Internal Server Error",
    503: "Service Unavailable",
}

PROTOCOL_HEADER = "x-repro-protocol"
"""Clients advertise their protocol version here; the server rejects an
incompatible one with 426 before any handler runs."""


class HttpError(Exception):
    """Raise inside a handler to answer a non-200 status with a
    structured :class:`~repro.api.protocol.ErrorEnvelope`."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.envelope = ErrorEnvelope(code=code, message=message)


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str, headers: dict, body: bytes):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def json(self):
        """The body as JSON, or a 400 :class:`HttpError`."""
        if not self.body:
            raise HttpError(400, "bad-request", "request body is empty")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise HttpError(
                400, "bad-json", f"request body is not valid JSON: {e}"
            ) from None


class Router:
    """Method + path-pattern dispatch.

    Patterns use ``{name}`` placeholders matching one path segment::

        router.add("GET", "/v1/sessions/{sid}", handler)

    Handlers are ``async def handler(request, **path_params)`` returning
    ``(status, json_document)`` or just a document (=200).
    """

    def __init__(self):
        self._routes: list[tuple[str, re.Pattern, object]] = []

    def add(self, method: str, pattern: str, handler) -> None:
        regex = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern) + "$"
        )
        self._routes.append((method.upper(), regex, handler))

    def resolve(self, method: str, path: str):
        """``(handler, params)`` or an :class:`HttpError` (404/405)."""
        path_matched = False
        for m, regex, handler in self._routes:
            match = regex.match(path)
            if match is None:
                continue
            path_matched = True
            if m == method.upper():
                return handler, match.groupdict()
        if path_matched:
            raise HttpError(
                405, "method-not-allowed",
                f"{method} is not supported on {path}",
            )
        raise HttpError(404, "not-found", f"no such endpoint: {path}")


def _encode_response(status: int, doc, keep_alive: bool) -> bytes:
    body = json.dumps(doc, allow_nan=False).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def refuse(writer: asyncio.StreamWriter, error: HttpError) -> None:
    """Answer ``error`` on a connection that will not be served, then
    close it; the transport sends the answer before it closes."""
    writer.write(_encode_response(error.status, error.envelope.to_json(),
                                  keep_alive=False))
    writer.close()


async def _read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the stream in time; ``None`` on clean EOF."""
    try:
        async with asyncio.timeout(REQUEST_TIMEOUT_S):
            return await _parse_request(reader)
    except TimeoutError:
        raise HttpError(408, "request-timeout", "request not received "
                        f"within {REQUEST_TIMEOUT_S:g} s") from None


async def _parse_request(reader: asyncio.StreamReader) -> Request | None:
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as e:
        if not e.partial:
            return None  # client closed between requests: fine
        raise HttpError(400, "bad-request", "truncated request head") \
            from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "bad-request", "request head too large") \
            from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "bad-request", "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(
            400, "bad-request", f"malformed request line: {lines[0]!r}"
        )
    method, target, _version = parts
    path = target.split("?", 1)[0]
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise HttpError(400, "bad-request",
                            f"malformed header line: {line!r}")
        name, value = line.split(":", 1)
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if not length.isdigit():
        raise HttpError(400, "bad-request",
                        f"bad Content-Length: {length!r}")
    n = int(length)
    if n > MAX_BODY_BYTES:
        raise HttpError(400, "bad-request", "request body too large")
    body = await reader.readexactly(n) if n else b""
    return Request(method, path, headers, body)


async def serve_connection(reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           router: Router) -> None:
    """Serve one client connection: request loop with keep-alive."""
    try:
        while True:
            keep_alive = False
            try:
                request = await _read_request(reader)
                if request is None:
                    return
                obs.add("service.requests")
                keep_alive = (
                    request.headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                handler, params = router.resolve(
                    request.method, request.path
                )
                advertised = request.headers.get(PROTOCOL_HEADER)
                if advertised is not None:
                    try:
                        check_version(advertised)
                    except ProtocolError as e:
                        raise HttpError(426, "protocol-mismatch",
                                        str(e)) from None
                result = await handler(request, **params)
                status, doc = (
                    result if isinstance(result, tuple) else (200, result)
                )
            except HttpError as e:
                status, doc = e.status, e.envelope.to_json()
            except ProtocolError as e:
                status = 400
                doc = ErrorEnvelope(
                    code="protocol-error", message=str(e)
                ).to_json()
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as e:  # handler bug: answer 500, keep serving
                status = 500
                message = f"{type(e).__name__}: {e}"
                obs.add("service.errors", where="handler")
                obs.instant("service.error",
                            args={"where": "handler", "error": message})
                doc = ErrorEnvelope(code="internal-error",
                                    message=message).to_json()
            writer.write(_encode_response(status, doc, keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
