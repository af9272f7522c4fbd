"""The server-owned, multi-tenant measurement store.

:class:`MeasurementStore` is the engine's on-disk cache
(:class:`~repro.engine.cache.CacheStore`) promoted to a long-lived,
server-owned WAL database shared by every tuning session:

- **content addressing** is the engine cache's -- a row's address is
  the :func:`repro.engine.cache.point_key` triple (context digest,
  size, canonical config text), so any session measuring the same
  ``(kernel, GPU, config, size, model)`` point hits the same row
  regardless of which tenant or strategy produced it;
- **one format stamp**: the base class's ``PRAGMA user_version``
  (:data:`~repro.engine.cache.ROW_FORMAT`) is the store's schema
  version.  A file in another row format is rebuilt empty, whichever
  store class opens it first; a plain
  :class:`~repro.engine.cache.CacheStore` file in this format is served
  as it stands (measurements are a cache -- rebuilding costs time,
  never correctness);
- **LRU tracking in the row**: every get/put stamps the touched rows'
  ``tick`` column with a monotonic tick, and the open and every put
  trim the store to ``max_entries``, least recently used first.  A row
  never stamped (a plain store wrote it) reads NULL, which sorts
  coldest; a deleted row takes its stamp with it, and rows from any
  writer count toward the cap at the next put;
- **thread safety** comes from the base class's per-thread connections
  (every fleet thread gets its own WAL connection with its own
  ``busy_timeout``); a put writes, stamps and trims in one transaction,
  and the tick and eviction counters are lock-guarded here.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path

from repro.engine.cache import _AT, _KEY, ROW_FORMAT, CacheStore

__all__ = ["MeasurementStore"]


class MeasurementStore(CacheStore):
    """A :class:`CacheStore` with LRU stamps and eviction.

    ``max_entries`` bounds the measurement table from the open on;
    ``None`` means unbounded (eviction is a no-op).
    """

    def __init__(self, path: str | Path | None = None,
                 max_entries: int | None = None):
        self.max_entries = max_entries
        self.evicted = 0
        """Measurements deleted by LRU eviction over this store's life."""
        self._lock = threading.Lock()
        super().__init__(path)
        (self._tick,) = self._conn.execute(
            "SELECT COALESCE(MAX(tick), -1) + 1 FROM measurements"
        ).fetchone()
        self.evict()

    # -- schema --------------------------------------------------------------

    def _schema(self, conn: sqlite3.Connection) -> None:
        super()._schema(conn)
        conn.execute(
            "CREATE INDEX IF NOT EXISTS measurements_by_tick"
            " ON measurements (tick)"
        )

    @property
    def schema_version(self) -> int:
        """The file's row format; bumping :data:`ROW_FORMAT` is the one
        way to retire a layout."""
        return ROW_FORMAT

    # -- LRU bookkeeping -----------------------------------------------------

    def _stamp(self, keys) -> None:
        """Stamp the rows at the addresses ``keys`` with the next ticks;
        the caller commits.  A row deleted since it was read is simply
        not updated."""
        keys = list(keys)
        with self._lock:
            start = self._tick
            self._tick += len(keys)
        self._conn.executemany(
            f"UPDATE measurements SET tick = ? WHERE {_AT}",
            [(start + i, *k) for i, k in enumerate(keys)],
        )

    def _touch(self, keys) -> None:
        """A put's hook, after its rows: stamp them (newest) and trim."""
        self._stamp(keys)
        self._trim(self.max_entries)

    def get_many(self, keys) -> dict:
        found = super().get_many(keys)
        if found:
            self._stamp(found)
            self._conn.commit()
        return found

    def put_many(self, items) -> None:
        """Write, stamp and trim (:meth:`_touch`) in one ``BEGIN IMMEDIATE``
        transaction: two fleet threads never evict the same overflow."""
        with self._conn as conn:  # the base class commits; errors roll back
            conn.execute("BEGIN IMMEDIATE")
            super().put_many(items)

    # -- eviction ------------------------------------------------------------

    def evict(self) -> int:
        """Delete the least-recently-used measurements beyond the store's
        cap; return how many.  Safe while sessions run: a session losing
        a row re-measures it."""
        with self._conn as conn:  # commits, or rolls back on an error
            conn.execute("BEGIN IMMEDIATE")
            return self._trim(self.max_entries)

    def _trim(self, cap: int | None) -> int:
        """Keep the ``cap`` most recently stamped rows and delete the
        rest, inside the caller's write transaction; count and return
        how many went.  The count takes every row, whichever process
        wrote it, and the pick runs on the tick index, which holds each
        row's address and sorts a NULL (never stamped) first."""
        if cap is None:
            return 0
        conn = self._conn
        (rows,) = conn.execute("SELECT COUNT(*) FROM measurements").fetchone()
        victims = conn.execute(
            f"SELECT {_KEY} FROM measurements ORDER BY tick LIMIT ?",
            (max(rows - cap, 0),)).fetchall()
        evicted = conn.executemany(
            f"DELETE FROM measurements WHERE {_AT}", victims).rowcount
        with self._lock:
            self.evicted += evicted
        return evicted
