"""The autotuning service: an asyncio HTTP server multiplexing many
concurrent ask/tell tuning sessions over one worker fleet and one shared
measurement store.

Layers (each importable and testable on its own):

- :mod:`repro.service.store` -- the server-owned measurement database
  (:class:`~repro.engine.cache.CacheStore` promoted with an LRU tick in
  each row and eviction to a cap);
- :mod:`repro.service.fleet` -- a thread pool of N drainers, each
  thread with its own supervised
  :class:`~repro.engine.engine.SweepEngine` over the shared store;
- :mod:`repro.service.sessions` -- the session manager: one ask/tell
  strategy instance per session, driven to completion (managed mode) or
  exposed over ask/tell endpoints (external mode);
- :mod:`repro.service.http` -- minimal HTTP/1.1 on
  ``asyncio.start_server`` (stdlib-only, no ``http.server``);
- :mod:`repro.service.server` -- the composed service, which caps its
  open connections (:data:`~repro.service.server.MAX_CONNECTIONS`), plus
  :class:`~repro.service.server.ThreadedServer` for tests and
  :func:`~repro.service.server.serve` for the CLI.
"""

from repro.service.server import Server, ThreadedServer, serve
from repro.service.store import MeasurementStore

__all__ = [
    "MeasurementStore",
    "Server",
    "ThreadedServer",
    "serve",
]
