"""Persistent measurement cache backing the sweep engine.

Every measured variant is stored at a *content address*: everything that
determines the measurement -- the kernel (name and spec structure), the
full GPU spec, the tuning configuration, the input size, the timing
model's :class:`~repro.sim.timing.ModelParams`, and the measurement
protocol (:data:`~repro.sim.timing.REPETITIONS` /
:data:`~repro.sim.timing.TRIAL_INDEX`).  A row's address is the triple
``(context digest, size, canonical config text)`` (:func:`point_key`):
the SHA-256 of everything but the point (:func:`context_key`), the size,
and the config's sorted-key JSON text.  Changing any input yields a
different address, so a cache never serves stale results after a model
recalibration; bumping :data:`CACHE_SCHEMA_VERSION` invalidates every
entry at once when the measurement semantics themselves change.

The store is a single SQLite file (stdlib ``sqlite3``; no third-party
dependency).  Only the coordinating process writes -- workers compute,
the engine persists -- but several *engines* (concurrent tuning
sessions) may share one store, so connections open in WAL journal mode
with a busy timeout: readers never block the writer and a briefly
contended write waits instead of raising ``database is locked``.  Every
connection commits with ``synchronous = NORMAL``: in WAL mode a commit
survives an application crash, and a power cut can lose only the last
commits, which are simply re-measured.

Rows live in one ``WITHOUT ROWID`` table keyed by their address, so the
rows of one sweep or search batch -- one context and size -- sit on
adjacent pages, and a batch reads each (context, size) group with one
indexed ``IN`` query.  A row holds only what was measured: ``seconds``,
``occupancy``, the register count and the register instructions, in
columns with no declared type, so SQLite keeps each value as written (an
``int`` reads back as an ``int`` and ``inf`` as ``inf``).  The config is
not stored apart from its address: a hit is the caller's own config and
size plus the row's four numbers, so serving a point parses nothing.  A
nullable ``tick`` column holds the service store's LRU stamp; this class
never writes it, so a row it writes reads NULL.  The layout is stamped
in ``PRAGMA user_version`` (:data:`ROW_FORMAT`); a file in any other
layout -- such as the digest-keyed rows or the single JSON ``payload``
column of earlier versions -- has its tables rebuilt empty at open.

The store is also hardened against damage, because a measurement cache
must never be able to abort the sweep it exists to accelerate:

- a row whose numbers fail to decode (any value of an unexpected type,
  NULL included) is counted (``corrupt``), moved to a ``quarantine``
  side table for post-mortem, and reported as a miss -- the point is
  simply re-measured;
- a database file that is corrupt at open (``sqlite3.DatabaseError``)
  is renamed aside (``*.corrupt-N``) and a fresh store is built in its
  place (``recovered_path`` records the sidelined file);
- an error :meth:`CacheStore.flush` swallows is counted
  (``flush_errors``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import asdict
from pathlib import Path

from repro.arch.specs import GPUSpec
from repro.autotune.measure import VariantMeasurement
from repro.sim.timing import REPETITIONS, TRIAL_INDEX, ModelParams
from repro.util.hashing import stable_hash

__all__ = [
    "CACHE_SCHEMA_VERSION", "CacheStore", "context_key", "default_cache_dir",
    "measurement_key", "point_key", "stable_hash",
]

CACHE_SCHEMA_VERSION = 2
"""Bump to invalidate all persisted measurements at once.  2: category
counts are summed in declaration order, where 1 summed them in the
writing process's string-hash order."""

ROW_FORMAT = 4
"""The row layout, stamped in ``PRAGMA user_version``.  4 addresses a
row by (context digest, size, canonical config text) in a ``WITHOUT
ROWID`` table; 3 keyed typed columns, the config's JSON text among them,
by the SHA-256 of the point; 2 kept the LRU ticks in a ``usage`` table,
and the JSON payload before it (1) left the stamp at 0."""

_ENV_VAR = "REPRO_CACHE_DIR"
_DB_NAME = "measurements.sqlite"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-sweeps``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-sweeps"


def context_key(
    benchmark_name: str,
    gpu: GPUSpec,
    params: ModelParams,
    specs=None,
) -> str:
    """Digest of everything a whole sweep shares: kernel name *and specs*,
    full GPU spec, model parameters, and measurement protocol.  Hashing
    the dataclasses is the expensive part, so the engine keeps the digest
    per (kernel, GPU, specs, params) and combines it with each point via
    :func:`point_key`.

    ``specs`` is the benchmark's kernel-spec tuple; including its (fully
    deterministic) repr means editing a kernel invalidates its cached
    measurements even though the name is unchanged.  Changes to the
    compiler or timing model themselves are what
    :data:`CACHE_SCHEMA_VERSION` is for.
    """
    return stable_hash({
        "v": CACHE_SCHEMA_VERSION,
        "kernel": benchmark_name,
        "specs": repr(specs) if specs is not None else None,
        "gpu": asdict(gpu),
        "params": asdict(params),
        "repetitions": REPETITIONS,
        "trial_index": TRIAL_INDEX,
    })


_canonical = json.JSONEncoder(sort_keys=True, default=repr).encode
""":func:`stable_hash`'s ``json.dumps`` options in one reusable encoder
(``json.dumps`` with options builds a new one per call)."""


def point_key(context: str, config: dict, size: int) -> tuple:
    """The store address of one ``(config, size)`` point under a context:
    ``(context, size, text)``, where ``text`` is the config as
    :func:`stable_hash` dumps it -- sorted keys, and ``repr`` for a value
    JSON cannot encode -- so configs that differ only in key order share
    an address."""
    return (context, int(size), _canonical(config))


def measurement_key(
    benchmark_name: str,
    gpu: GPUSpec,
    config: dict,
    size: int,
    params: ModelParams,
    specs=None,
) -> str:
    """The content digest of one ``(kernel, GPU, config, size, model)``
    point: :func:`stable_hash` of its context digest, config and size,
    the text of its :func:`point_key` address.  It names a measurement
    outside the store (``MeasurementRecord.key``)."""
    return stable_hash({
        "ctx": context_key(benchmark_name, gpu, params, specs=specs),
        "config": config,
        "size": int(size),
    })


_NUMBERS = "seconds, occupancy, regs, reg_instructions"
"""A row's measured columns, in :func:`_encode` order."""

_KEY = "ctx, size, config"
"""A row's address columns, in :func:`point_key` order."""

_AT = "ctx = ? AND size = ? AND config = ?"
"""One row, by its address."""

_ADDRESS = "ctx TEXT, size INTEGER, config TEXT"
_KEYED = f"PRIMARY KEY ({_KEY})) WITHOUT ROWID"
"""A row table's address columns and the clause that closes its DDL:
the rows of one context and size sit together in the key order."""

_NUMBER = (int, float)


def _encode(m: VariantMeasurement) -> tuple:
    """A measurement's row values, in :data:`_NUMBERS` order."""
    return m.seconds, m.occupancy, m.regs_per_thread, m.reg_instructions


def _decode(values) -> tuple:
    """A row's measured numbers, as served.  Raises on any value of an
    unexpected type, so a damaged row -- or a NULL, which is how SQLite
    stores a NaN -- is never served."""
    seconds, occupancy, regs, reg_instructions = values
    if (type(regs) is not int or type(seconds) not in _NUMBER
            or type(occupancy) not in _NUMBER
            or type(reg_instructions) not in _NUMBER):
        raise TypeError(
            "unexpected column types "
            + ", ".join(type(v).__name__ for v in values)
        )
    return values


BUSY_TIMEOUT_MS = 10_000
"""How long a contended write waits before ``database is locked``."""

_UPSERT = (
    f"INSERT OR REPLACE INTO measurements ({_KEY}, {_NUMBERS})"
    " VALUES (?, ?, ?, ?, ?, ?, ?)"
)


def _row_format(conn: sqlite3.Connection) -> int:
    (version,) = conn.execute("PRAGMA user_version").fetchone()
    return version


class CacheStore:
    """On-disk store of measurements, addressed by :func:`point_key`: a
    :class:`VariantMeasurement` goes in, its four measured numbers come
    back.

    ``path`` may be a directory (the database file is created inside it)
    or an explicit ``*.sqlite`` / ``*.db`` file path.  Stores are
    context managers (``with CacheStore(p) as store: ...`` closes the
    connection deterministically); ``close`` is idempotent.
    """

    def __init__(self, path: str | Path | None = None):
        path = (
            Path(path).expanduser() if path is not None
            else default_cache_dir()
        )
        if path.suffix in (".sqlite", ".db"):
            self.db_path = path
        else:
            self.db_path = path / _DB_NAME
        self.db_path.parent.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        """Requested keys served, counted per request (a key asked for
        twice and found counts twice)."""
        self.misses = 0
        self.corrupt = 0
        """Rows that failed to decode and were quarantined."""
        self.flush_errors = 0
        """Errors (``sqlite3.Error``) that :meth:`flush` swallowed."""
        self.recovered_path: Path | None = None
        """Where a corrupt database file was moved aside, if one was."""
        # One connection per thread: SQLite connections are not safe to
        # share across threads, and -- the subtler seed bug -- pragmas
        # are *per connection*, so every connection (not just the first)
        # must set WAL + busy_timeout + synchronous, or a concurrent
        # session's writes land in rollback-journal mode and raise
        # "database is locked" under contention.
        self._local = threading.local()
        self._all_conns: list[sqlite3.Connection] = []
        self._conn_lock = threading.Lock()
        self._closed = False
        try:
            self._local.conn = self._open()
        except sqlite3.DatabaseError:
            # corrupt database file: move it aside and rebuild
            self.recovered_path = self._sideline_database()
            self._local.conn = self._open()

    @property
    def _conn(self) -> sqlite3.Connection:
        """This thread's connection, opened on first use."""
        if self._closed:
            raise sqlite3.ProgrammingError(
                "Cannot operate on a closed database."
            )
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._open()
            self._local.conn = conn
        return conn

    def _open(self) -> sqlite3.Connection:
        # check_same_thread=False so close() can shut every thread's
        # connection down from the owning thread; each connection is
        # still *used* by exactly one thread (thread-local storage)
        conn = sqlite3.connect(str(self.db_path), check_same_thread=False)
        try:
            conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
            if _row_format(conn) != ROW_FORMAT:
                self._rebuild(conn)
            self._schema(conn)
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        with self._conn_lock:
            self._all_conns.append(conn)
        return conn

    _ROW_TABLES = ("measurements", "quarantine", "usage")
    """The tables a change of :data:`ROW_FORMAT` rebuilds empty.  ``usage``
    is format 2's table of the service store's LRU stamps."""

    def _rebuild(self, conn: sqlite3.Connection) -> None:
        """Stamp a new file with :data:`ROW_FORMAT`, rebuilding empty the
        row tables of a file in any other format.  One transaction under
        the write lock, so processes opening the file together rebuild it
        once."""
        conn.execute("BEGIN IMMEDIATE")
        try:
            if _row_format(conn) != ROW_FORMAT:
                for table in self._ROW_TABLES:
                    conn.execute(f"DROP TABLE IF EXISTS {table}")
                self._schema(conn)
                conn.execute(f"PRAGMA user_version = {ROW_FORMAT}")
            conn.commit()
        except BaseException:
            conn.rollback()
            raise

    def _schema(self, conn: sqlite3.Connection) -> None:
        """Create the store's tables (subclass hook: the service's
        :class:`~repro.service.store.MeasurementStore` extends it)."""
        conn.execute(
            "CREATE TABLE IF NOT EXISTS measurements ("
            f" {_ADDRESS}, {_NUMBERS}, tick INTEGER, {_KEYED}"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS quarantine ("
            f" {_ADDRESS}, payload TEXT, error TEXT, {_KEYED}"
        )

    def _sideline_database(self) -> Path:
        """Rename the (corrupt) database file out of the way, with its
        stale WAL/SHM siblings, so a fresh store can be built."""
        n = 1
        while True:
            target = self.db_path.with_name(
                f"{self.db_path.name}.corrupt-{n}"
            )
            if not target.exists():
                break
            n += 1
        os.replace(self.db_path, target)
        for suffix in ("-wal", "-shm"):
            sibling = Path(str(self.db_path) + suffix)
            if sibling.exists():
                sibling.unlink()
        return target

    def _quarantine(self, key: tuple, values, error: Exception) -> None:
        """Move a row that failed to decode to the quarantine table; the
        caller reports it as a miss, so the point is re-measured."""
        self.corrupt += 1
        conn = self._conn
        conn.execute(
            f"INSERT OR REPLACE INTO quarantine ({_KEY}, payload, error)"
            " VALUES (?, ?, ?, ?, ?)",
            (*key, repr(values), f"{type(error).__name__}: {error}"),
        )
        conn.execute(f"DELETE FROM measurements WHERE {_AT}", key)
        conn.commit()

    # -- single-item API -----------------------------------------------------

    def get(self, key: tuple) -> tuple | None:
        return self.get_many([key]).get(key)

    def put(self, key: tuple, measurement: VariantMeasurement) -> None:
        self.put_many([(key, measurement)])

    # -- batch API (what the engine uses) ------------------------------------

    def get_many(self, keys) -> dict:
        """``{address: (seconds, occupancy, regs, reg_instructions)}`` for
        every :func:`point_key` address present in the store.  Each
        (context, size) group is read with one indexed ``IN`` query per
        chunk of config texts; the caller pairs a hit's numbers with the
        config and size it asked with, so nothing is parsed."""
        keys = list(keys)
        groups: dict = {}
        for ctx, size, config in keys:
            groups.setdefault((ctx, size), []).append(config)
        found: dict = {}
        conn = self._conn
        CHUNK = 400  # stay well under SQLite's bound-variable limit
        for (ctx, size), configs in groups.items():
            for lo in range(0, len(configs), CHUNK):
                chunk = configs[lo:lo + CHUNK]
                rows = conn.execute(
                    f"SELECT config, {_NUMBERS} FROM measurements"
                    " WHERE ctx = ? AND size = ? AND config IN"
                    f" ({','.join('?' * len(chunk))})",
                    (ctx, size, *chunk),
                ).fetchall()
                for row in rows:
                    key = (ctx, size, row[0])
                    try:
                        found[key] = _decode(row[1:])
                    except Exception as e:
                        self._quarantine(key, row[1:], e)
        hits = sum(map(found.__contains__, keys))
        self.hits += hits
        self.misses += len(keys) - hits
        return found

    def put_many(self, items) -> None:
        """Persist ``(address, measurement)`` pairs (idempotent upsert) as
        one transaction."""
        rows = [(*k, *_encode(m)) for k, m in items]
        if not rows:
            return
        self._conn.executemany(_UPSERT, rows)
        self._touch([row[:3] for row in rows])
        self._conn.commit()

    def _touch(self, keys) -> None:
        """Record that the rows at ``keys`` were just used, inside the
        caller's transaction (subclass hook: the service store's LRU)."""

    # -- maintenance ---------------------------------------------------------

    def __len__(self) -> int:
        (n,) = self._conn.execute(
            "SELECT COUNT(*) FROM measurements"
        ).fetchone()
        return int(n)

    def quarantined(self) -> list:
        """``(address, error)`` of the rows sidelined by decode failures,
        in address order, for post-mortem."""
        return [
            ((ctx, size, config), error)
            for ctx, size, config, error in self._conn.execute(
                f"SELECT {_KEY}, error FROM quarantine ORDER BY {_KEY}"
            )
        ]

    def clear(self) -> None:
        self._conn.execute("DELETE FROM measurements")
        self._conn.execute("DELETE FROM quarantine")
        self._conn.commit()

    def flush(self) -> None:
        """Commit this thread's work and fold the WAL back into the main
        database file (checkpoint), so a reader opening the file fresh
        sees everything.  Idempotent, and a silent no-op once the store
        is closed."""
        if self._closed:
            return
        try:
            conn = self._conn
            conn.commit()
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error:
            # flush is advisory: a checkpoint blocked by a concurrent
            # reader leaves the WAL for the next one, and a failed commit
            # leaves this thread's work to its next commit; both count
            self.flush_errors += 1

    def close(self) -> None:
        """Idempotent; operations after close raise
        ``sqlite3.ProgrammingError``."""
        if self._closed:
            return
        self._closed = True
        with self._conn_lock:
            conns, self._all_conns = self._all_conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
