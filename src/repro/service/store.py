"""The server-owned, multi-tenant measurement store.

:class:`MeasurementStore` is the engine's on-disk cache
(:class:`~repro.engine.cache.CacheStore`) promoted to a long-lived,
server-owned WAL database shared by every tuning session:

- **content addressing** is unchanged -- keys come from
  :func:`repro.engine.cache.measurement_key` /
  :func:`repro.util.hashing.stable_hash`, so any session measuring the
  same ``(kernel, GPU, config, size, model)`` point hits the same row
  regardless of which tenant or strategy produced it;
- **one format stamp**: the base class's ``PRAGMA user_version``
  (:data:`~repro.engine.cache.ROW_FORMAT`) is the store's schema
  version.  A file in another row format is rebuilt empty, its
  ``usage`` table with the rows, whichever store class opens it first;
  a plain :class:`~repro.engine.cache.CacheStore` file in this format
  is served as it stands (measurements are a cache -- rebuilding costs
  time, never correctness);
- **LRU usage tracking**: every get/put stamps the touched rows with a
  monotonic tick in a ``usage`` table, and the open and every put trim
  the store to ``max_entries``, least recently used first, so its
  database never outgrows its cap;
- **thread safety** comes from the base class's per-thread connections
  (every fleet thread gets its own WAL connection with its own
  ``busy_timeout``); a put writes, stamps and trims in one transaction,
  and the tick and eviction counters are lock-guarded here.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path

from repro.engine.cache import ROW_FORMAT, CacheStore

__all__ = ["MeasurementStore"]


class MeasurementStore(CacheStore):
    """A :class:`CacheStore` with LRU usage tracking and eviction.

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
        conn = self._conn
        # rows a plain store wrote have no stamp: coldest of all
        conn.execute("INSERT INTO usage SELECT key, -1 FROM measurements"
                     " WHERE key NOT IN (SELECT key FROM usage)")
        conn.commit()
        (self._tick,) = conn.execute(
            "SELECT COALESCE(MAX(tick), -1) + 1 FROM usage").fetchone()
        self.evict()

    # -- schema --------------------------------------------------------------

    def _schema(self, conn: sqlite3.Connection) -> None:
        super()._schema(conn)
        conn.execute(
            "CREATE TABLE IF NOT EXISTS usage ("
            " key TEXT PRIMARY KEY,"
            " tick INTEGER NOT NULL)"
        )
        conn.execute(
            "CREATE INDEX IF NOT EXISTS usage_by_tick ON usage (tick)"
        )

    @property
    def schema_version(self) -> int:
        """The file's row format; bumping :data:`ROW_FORMAT` is the one
        way to retire a layout."""
        return ROW_FORMAT

    # -- LRU bookkeeping -----------------------------------------------------

    def _stamp(self, keys) -> None:
        """Stamp those of ``keys`` still stored with the next ticks; the
        caller commits.  A get stamps after its read, in a write of its
        own: a trim in between must not leave a stamp without its row."""
        keys = list(keys)
        with self._lock:
            start = self._tick
            self._tick += len(keys)
        self._conn.executemany(
            "INSERT OR REPLACE INTO usage (key, tick) SELECT ?1, ?2"
            " WHERE EXISTS (SELECT 1 FROM measurements WHERE key = ?1)",
            [(k, start + i) for i, k in enumerate(keys)],
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

    def clear(self) -> None:
        super().clear()
        self._conn.execute("DELETE FROM usage")
        self._conn.commit()

    # -- eviction ------------------------------------------------------------

    def evict(self, max_entries: int | None = None) -> int:
        """Delete the least-recently-used measurements beyond the cap
        (``max_entries`` overrides the store's); return how many.  Safe
        while sessions run: a session losing a row re-measures it."""
        cap = self.max_entries if max_entries is None else max_entries
        with self._conn as conn:  # commits, or rolls back on an error
            conn.execute("BEGIN IMMEDIATE")
            return self._trim(cap)

    def _trim(self, cap: int | None) -> int:
        """Keep the ``cap`` newest stamps and delete the rest with their
        rows, inside the caller's write transaction; count and return
        how many rows went.  Every stored row has a stamp (rows another
        process writes get theirs at the next open), so the count and
        the pick run on the small tick index, not on the table."""
        if cap is None:
            return 0
        conn = self._conn
        (stamps,) = conn.execute("SELECT COUNT(*) FROM usage").fetchone()
        victims = conn.execute(
            "SELECT key FROM usage ORDER BY tick LIMIT ?",
            (max(stamps - cap, 0),)).fetchall()
        conn.executemany("DELETE FROM usage WHERE key = ?", victims)
        evicted = conn.executemany(
            "DELETE FROM measurements WHERE key = ?", victims).rowcount
        with self._lock:
            self.evicted += evicted
        return evicted
