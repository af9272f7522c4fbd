"""The public API: three verbs over one versioned protocol.

- :func:`tune` runs a tuning session in this process and returns the
  protocol's :class:`SessionResult`;
- :func:`serve` runs the autotuning service (an asyncio HTTP server over
  a shared worker fleet and measurement store);
- :func:`connect` returns a :class:`~repro.client.ReproClient` speaking
  the same protocol to a running server.

All three exchange the frozen, JSON-serializable dataclasses in
:mod:`repro.api.protocol`; ``from repro.api import tune, serve, connect``
is the supported import surface;
:class:`~repro.autotune.tuner.Autotuner` and
:class:`~repro.autotune.measure.Measurer` are the engine-room API under
it.
"""

from repro.api.local import run_tune_request, tune
from repro.api.protocol import (
    PROTOCOL_VERSION,
    AskBatch,
    ErrorEnvelope,
    MeasurementRecord,
    Message,
    ProtocolError,
    ServerInfo,
    SessionResult,
    SessionStatus,
    SpaceSpec,
    StoreStats,
    TellResult,
    TuneRequest,
    parse_message,
)

__all__ = [
    "PROTOCOL_VERSION",
    "AskBatch",
    "ErrorEnvelope",
    "MeasurementRecord",
    "Message",
    "ProtocolError",
    "ServerInfo",
    "SessionResult",
    "SessionStatus",
    "SpaceSpec",
    "StoreStats",
    "TellResult",
    "TuneRequest",
    "connect",
    "parse_message",
    "run_tune_request",
    "serve",
    "tune",
]


def serve(*args, **kwargs):
    """Run the autotuning service (blocking).  See
    :func:`repro.service.server.serve` for the parameters."""
    # imported lazily: repro.service pulls in asyncio plumbing that the
    # in-process tune() path never needs
    from repro.service.server import serve as _serve

    return _serve(*args, **kwargs)


def connect(url: str, **kwargs):
    """A client for a running autotuning server.  See
    :class:`repro.client.ReproClient`."""
    from repro.client import connect as _connect

    return _connect(url, **kwargs)
