"""The server-owned, multi-tenant measurement store.

:class:`MeasurementStore` is the engine's on-disk cache
(:class:`~repro.engine.cache.CacheStore`) promoted to a long-lived,
server-owned WAL database shared by every tuning session:

- **content addressing** is unchanged -- keys come from
  :func:`repro.engine.cache.measurement_key` /
  :func:`repro.util.hashing.stable_hash`, so any session measuring the
  same ``(kernel, GPU, config, size, model)`` point hits the same row
  regardless of which tenant or strategy produced it;
- **schema versioning**: a ``meta`` table records the store schema; an
  incompatible store found on disk is emptied and rebuilt rather than
  misread (measurements are a cache -- rebuilding costs time, never
  correctness).  A file in another row format
  (:data:`~repro.engine.cache.ROW_FORMAT`) loses its ``usage`` table
  along with the rows, whichever store class opens it first;
- **LRU usage tracking**: every get/put stamps the touched keys with a
  monotonic tick in a ``usage`` table (a put commits its rows and their
  stamps as one transaction), and :meth:`evict` deletes the
  least-recently-used overflow beyond ``max_entries``, so a long-running
  server's database stays bounded;
- **thread safety** comes from the base class's per-thread connections
  (every drainer thread gets its own WAL connection with its own
  ``busy_timeout``); the tick counter is the only shared state and is
  lock-guarded here.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path

from repro.engine.cache import CacheStore

__all__ = ["STORE_SCHEMA_VERSION", "MeasurementStore"]

STORE_SCHEMA_VERSION = 1
"""Bump when the service-side tables (meta/usage) change shape."""

_META_SCHEMA_KEY = "store_schema"


class MeasurementStore(CacheStore):
    """A :class:`CacheStore` with schema versioning and LRU eviction.

    ``max_entries`` bounds the measurement table; ``None`` means
    unbounded (eviction passes become no-ops).
    """

    def __init__(self, path: str | Path | None = None,
                 max_entries: int | None = None):
        self.max_entries = max_entries
        self.evicted = 0
        """Measurements deleted by LRU eviction over this store's life."""
        self._tick_lock = threading.Lock()
        self._tick = 0
        super().__init__(path)
        self._adopt_or_rebuild()
        row = self._conn.execute("SELECT MAX(tick) FROM usage").fetchone()
        self._tick = int(row[0] or 0)

    # -- schema --------------------------------------------------------------

    def _schema(self, conn: sqlite3.Connection) -> None:
        super()._schema(conn)
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta ("
            " key TEXT PRIMARY KEY,"
            " value TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS usage ("
            " key TEXT PRIMARY KEY,"
            " tick INTEGER NOT NULL)"
        )
        conn.execute(
            "CREATE INDEX IF NOT EXISTS usage_by_tick ON usage (tick)"
        )

    def _adopt_or_rebuild(self) -> None:
        """Accept a store written by this schema; empty anything else."""
        conn = self._conn
        row = conn.execute(
            "SELECT value FROM meta WHERE key = ?", (_META_SCHEMA_KEY,)
        ).fetchone()
        found = int(row[0]) if row and str(row[0]).isdigit() else None
        if found != STORE_SCHEMA_VERSION:
            if found is not None or len(self):
                # a populated store from another schema: rebuild empty
                conn.execute("DELETE FROM measurements")
                conn.execute("DELETE FROM quarantine")
                conn.execute("DELETE FROM usage")
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (_META_SCHEMA_KEY, str(STORE_SCHEMA_VERSION)),
            )
            conn.commit()

    @property
    def schema_version(self) -> int:
        return STORE_SCHEMA_VERSION

    # -- LRU bookkeeping -----------------------------------------------------

    def _touch(self, keys) -> None:
        """Stamp ``keys`` with the next ticks; the caller commits."""
        keys = list(keys)
        with self._tick_lock:
            start = self._tick
            self._tick += len(keys)
        self._conn.executemany(
            "INSERT OR REPLACE INTO usage (key, tick) VALUES (?, ?)",
            [(k, start + i) for i, k in enumerate(keys)],
        )

    def get_many(self, keys) -> dict:
        found = super().get_many(keys)
        if found:
            self._touch(found)
            self._conn.commit()
        return found

    def put_many(self, items) -> None:
        # the service store's own entry point, which
        # benchmarks/e2e/layers.py traces; the base class commits the rows
        # together with their usage stamps (see _touch)
        super().put_many(items)

    def clear(self) -> None:
        super().clear()
        self._conn.execute("DELETE FROM usage")
        self._conn.commit()

    # -- eviction ------------------------------------------------------------

    def evict(self, max_entries: int | None = None) -> int:
        """Delete the least-recently-used measurements beyond the cap;
        return how many were evicted.  Safe to run while sessions are
        active (a session losing a row simply re-measures it)."""
        cap = self.max_entries if max_entries is None else max_entries
        if cap is None:
            return 0
        conn = self._conn
        excess = len(self) - cap
        if excess <= 0:
            return 0
        victims = [row[0] for row in conn.execute(
            # never-touched rows (no usage stamp) are the coldest of all
            "SELECT m.key FROM measurements m"
            " LEFT JOIN usage u ON u.key = m.key"
            " ORDER BY u.tick IS NOT NULL, u.tick"
            " LIMIT ?",
            (excess,),
        ).fetchall()]
        conn.executemany(
            "DELETE FROM measurements WHERE key = ?",
            [(k,) for k in victims],
        )
        conn.executemany(
            "DELETE FROM usage WHERE key = ?", [(k,) for k in victims]
        )
        conn.commit()
        self.evicted += len(victims)
        self.flush()
        return len(victims)
