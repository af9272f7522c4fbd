"""The shared measurement store and the hardened CacheStore beneath it:
per-connection WAL pragmas, cross-thread access, idempotent flush,
row-format adoption, LRU eviction on every put, typed rows and their
format upgrade, and commit durability.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
import subprocess
import sys
import threading
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.arch import get_gpu
from repro.autotune.measure import VariantMeasurement
from repro.autotune.space import Parameter, ParameterSpace
from repro.engine import SweepEngine
from repro.engine.cache import ROW_FORMAT, CacheStore
from repro.kernels import get_benchmark
from repro.service.store import MeasurementStore


def _m(i: int) -> VariantMeasurement:
    return VariantMeasurement(
        config={"TC": 32 * (i + 1), "BC": 48}, size=16,
        seconds=1e-4 * (i + 1), occupancy=0.5, regs_per_thread=20,
        reg_instructions=100.0,
    )


def test_every_connection_gets_wal_and_busy_timeout(tmp_path):
    """The seed bug under test: pragmas are per-connection, so a second
    thread's connection must re-apply them or concurrent sessions fall
    back to rollback journaling and 'database is locked'."""
    store = CacheStore(tmp_path)
    seen: dict[str, tuple] = {}

    def probe(label: str) -> None:
        conn = store._conn  # opens this thread's connection lazily
        (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        (timeout,) = conn.execute("PRAGMA busy_timeout").fetchone()
        seen[label] = (mode, timeout, id(conn))

    probe("main")
    t = threading.Thread(target=probe, args=("worker",))
    t.start()
    t.join()
    assert seen["main"][0] == "wal"
    assert seen["worker"][0] == "wal"
    assert seen["worker"][1] > 0
    assert seen["main"][2] != seen["worker"][2]  # distinct connections
    store.close()


def test_cross_thread_get_put(tmp_path):
    store = MeasurementStore(tmp_path)
    errors: list = []

    def writer(base: int) -> None:
        try:
            store.put_many(
                (f"k{base + i}", _m(i)) for i in range(20)
            )
            found = store.get_many([f"k{base + i}" for i in range(20)])
            assert len(found) == 20
        except Exception as e:
            errors.append(e)

    threads = [
        threading.Thread(target=writer, args=(100 * t,)) for t in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    assert len(store) == 80
    store.close()


def test_flush_is_idempotent_and_safe_after_close(tmp_path):
    store = MeasurementStore(tmp_path)
    store.put("k", _m(0))
    store.flush()
    store.flush()  # idempotent
    assert store.get("k") == _m(0)
    store.close()
    store.flush()  # silent no-op on a closed store
    store.close()  # close is idempotent too


def test_schema_version_adoption_and_rebuild(tmp_path):
    store = MeasurementStore(tmp_path)
    store.put("k", _m(0))
    store.close()

    # same row format: a reopened store keeps its contents
    again = MeasurementStore(tmp_path)
    assert again.get("k") == _m(0)
    assert again.schema_version == ROW_FORMAT
    again.close()

    # a file stamped with a foreign format is rebuilt empty, its LRU
    # stamps with the rows
    conn = sqlite3.connect(str(tmp_path / "measurements.sqlite"))
    assert conn.execute(
        "SELECT COUNT(tick) FROM measurements"
    ).fetchone() == (1,)
    conn.execute("PRAGMA user_version = 999")
    conn.commit()
    conn.close()
    rebuilt = MeasurementStore(tmp_path)
    assert len(rebuilt) == 0
    assert rebuilt._conn.execute(
        "SELECT COUNT(tick) FROM measurements"
    ).fetchone() == (0,)
    rebuilt.close()

    # a plain CacheStore file has the same rows and keys: served as is
    plain_dir = tmp_path / "plain"
    plain = CacheStore(plain_dir)
    plain.put("old", _m(0))
    plain.close()
    promoted = MeasurementStore(plain_dir)
    assert promoted.get("old") == _m(0)
    promoted.close()


def test_lru_eviction(tmp_path):
    store = MeasurementStore(tmp_path, max_entries=4)
    store.put_many((f"k{i}", _m(i)) for i in range(4))
    assert store.evict() == 0  # at the cap, nothing to do

    # touch k0 and k1 so k2/k3 are the LRU victims when we overflow
    store.get_many(["k0", "k1"])
    store.put_many((f"k{i}", _m(i)) for i in range(4, 6))
    # the put that overflows the cap trims the store itself
    assert len(store) == 4
    assert store.evicted == 2
    remaining = store.get_many([f"k{i}" for i in range(6)])
    assert sorted(remaining) == ["k0", "k1", "k4", "k5"]
    store.get_many(["k1"])  # the newest stamp
    store.close()

    # a store reopened with a smaller cap trims to it
    store = MeasurementStore(tmp_path, max_entries=1)
    assert store.evicted == 3
    assert list(store.get_many([f"k{i}" for i in range(6)])) == ["k1"]
    store.close()


def test_open_trims_to_the_cap(tmp_path):
    """A store reopened with a smaller cap is within it before any put;
    a row a plain store wrote has no stamp, so it is the coldest."""
    store = MeasurementStore(tmp_path)
    store.put_many((f"k{i}", _m(i)) for i in range(5))
    store.get_many(["k0"])
    store.close()
    plain = CacheStore(tmp_path)
    plain.put("plain", _m(5))
    plain.close()

    capped = MeasurementStore(tmp_path, max_entries=4)
    assert len(capped) == 4
    assert capped.evicted == 2
    assert sorted(capped.get_many([f"k{i}" for i in range(5)] + ["plain"])
                  ) == ["k0", "k2", "k3", "k4"]
    capped.close()


def test_a_get_never_stamps_a_row_trimmed_under_it(tmp_path, monkeypatch):
    """A get stamps its rows after reading them: if a put's trim deletes
    one in between, no stamp may outlive the row."""
    store = MeasurementStore(tmp_path, max_entries=2)
    store.put_many([("a", _m(0)), ("b", _m(1))])
    read = CacheStore.get_many

    def read_then_trim(self, keys):
        found = read(self, keys)
        store.put_many([("c", _m(2))])  # trims "a", the oldest
        return found

    monkeypatch.setattr(CacheStore, "get_many", read_then_trim)
    assert list(store.get_many(["a"])) == ["a"]
    monkeypatch.undo()
    assert store._conn.execute(
        "SELECT key, tick IS NOT NULL FROM measurements ORDER BY key"
    ).fetchall() == [("b", 1), ("c", 1)]
    store.close()


def test_a_capped_store_stays_full_after_a_quarantine(tmp_path):
    """A quarantined row takes its stamp with it, so the next put counts
    only the rows left and evicts none of them."""
    store = MeasurementStore(tmp_path, max_entries=4)
    store.put_many((f"k{i}", _m(i)) for i in range(4))
    store._conn.execute(
        "UPDATE measurements SET seconds = 'bad' WHERE key = 'k3'")
    store._conn.commit()
    assert store.get("k3") is None and store.corrupt == 1
    store.put("k4", _m(4))
    assert len(store) == 4
    assert store.evicted == 0
    store.close()


def test_rows_another_writer_puts_count_at_the_next_put(tmp_path):
    """Rows a plain store writes into a capped store's file carry no
    stamp: the next put counts them and evicts them first."""
    store = MeasurementStore(tmp_path, max_entries=4)
    store.put_many([("a", _m(0)), ("b", _m(1))])
    plain = CacheStore(tmp_path)
    plain.put_many((f"x{i}", _m(i)) for i in range(3))
    plain.close()
    store.put("c", _m(2))
    assert len(store) == 4
    assert store.evicted == 2
    left = store.get_many(["a", "b", "c", "x0", "x1", "x2"])
    assert len(left) == 4 and {"a", "b", "c"} <= set(left)
    store.close()


@pytest.mark.parametrize("writers,batch", [(2, 5), (4, 1)])
def test_concurrent_puts_evict_the_overflow_once(tmp_path, writers, batch):
    """Threads putting 50 rows each into one capped store: every put
    trims, and no overflow row is evicted (or counted) twice.  Four
    writers outnumber the cores of a 2-vCPU host: the case that catches
    a trim counting outside its write transaction."""
    store = MeasurementStore(tmp_path, max_entries=10)
    errors: list = []

    def writer(base: int) -> None:
        try:
            for lo in range(0, 50, batch):
                store.put_many(
                    (f"k{base + i}", _m(i)) for i in range(lo, lo + batch)
                )
        except Exception as e:
            errors.append(e)

    threads = [
        threading.Thread(target=writer, args=(100 * t,))
        for t in range(writers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(store) == 10
    assert store.evicted == 50 * writers - 10
    store.close()


def test_unbounded_store_never_evicts(tmp_path):
    store = MeasurementStore(tmp_path)
    store.put_many((f"k{i}", _m(i)) for i in range(10))
    assert store.evict() == 0
    assert len(store) == 10
    store.close()


def test_engine_never_closes_a_shared_store(tmp_path):
    """A MeasurementStore instance passed to SweepEngine must survive
    the engine's context exit (the server shares one store across every
    drainer engine)."""
    from repro.engine import SweepEngine

    store = MeasurementStore(tmp_path)
    with SweepEngine(jobs=1, cache=store):
        pass
    store.put("still-open", _m(0))  # would raise if the engine closed it
    store.close()


# ---------------------------------------------------------------------------
# typed rows


def _bytes(m: VariantMeasurement) -> str:
    return json.dumps(vars(m))


def test_typed_rows_return_what_was_written(tmp_path):
    m = VariantMeasurement(
        config={"TC": 64, "CFLAGS": "-use_fast_math", "BC": 48}, size=16,
        seconds=math.inf, occupancy=0.0, regs_per_thread=20,
        reg_instructions=12345,
    )
    CacheStore(tmp_path).put("k", m)
    back = CacheStore(tmp_path).get("k")
    assert back == m
    assert type(back.reg_instructions) is int
    assert type(back.occupancy) is float and math.isinf(back.seconds)
    assert list(back.config) == ["TC", "CFLAGS", "BC"]  # its own order
    assert _bytes(back) == _bytes(m)


@pytest.mark.parametrize("field", ["seconds", "occupancy",
                                   "reg_instructions"])
def test_nan_reads_back_as_a_miss(tmp_path, field):
    """SQLite stores a NaN as NULL; the row must read as a miss, never
    as a measurement holding ``None``."""
    store = CacheStore(tmp_path)
    store.put("k", replace(_m(0), **{field: math.nan}))
    assert store.get("k") is None
    assert (store.hits, store.misses, store.corrupt) == (0, 1, 1)
    assert [k for k, _ in store.quarantined()] == ["k"]


ATAX = get_benchmark("atax")
K20 = get_gpu("kepler")
TINY = ParameterSpace([
    Parameter("TC", (64, 128, 256)),
    Parameter("BC", (48,)),
    Parameter("UIF", (1,)),
    Parameter("PL", (16,)),
    Parameter("CFLAGS", ("",)),
])


@pytest.mark.parametrize("column,value", [
    ("config", None), ("config", 7), ("config", "[64, 48]"),
    ("config", "{not json"),
    ("size", None), ("size", "16"), ("size", 16.0),
    ("seconds", None), ("seconds", "fast"), ("seconds", b"\x00"),
    ("occupancy", None), ("occupancy", "0.5"),
    ("regs", None), ("regs", 20.5),
    ("reg_instructions", None), ("reg_instructions", "100"),
])
def test_wrong_typed_value_is_quarantined_and_remeasured(tmp_path, column,
                                                         value):
    store = CacheStore(tmp_path)
    engine = SweepEngine(jobs=1, cache=store)
    first = engine.sweep(ATAX, K20, TINY, ATAX.sizes[:1])
    (key,) = store._conn.execute(
        "SELECT key FROM measurements ORDER BY key LIMIT 1"
    ).fetchone()
    store._conn.execute(
        f"UPDATE measurements SET {column} = ? WHERE key = ?", (value, key)
    )
    store._conn.commit()

    again = engine.sweep(ATAX, K20, TINY, ATAX.sizes[:1])
    assert [_bytes(m) for m in again] == [_bytes(m) for m in first]
    stats = engine.last_stats
    assert (stats.corrupt, stats.measured, stats.hits) == (
        1, 1, len(first) - 1
    )
    assert [k for k, _ in store.quarantined()] == [key]
    engine.sweep(ATAX, K20, TINY, ATAX.sizes[:1])
    assert engine.last_stats.hits == len(first)  # repaired in place


# ---------------------------------------------------------------------------
# format upgrade


def _parent_file(path: Path, service_tables: bool) -> None:
    """A store file as the JSON-payload version of the code left it:
    its DDL, no ``user_version`` stamp, and one JSON row."""
    path.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(str(path / "measurements.sqlite"))
    conn.execute("PRAGMA journal_mode = WAL")
    conn.execute("CREATE TABLE measurements ("
                 " key TEXT PRIMARY KEY, payload TEXT NOT NULL)")
    conn.execute("CREATE TABLE quarantine ("
                 " key TEXT PRIMARY KEY, payload TEXT, error TEXT)")
    conn.execute("INSERT INTO measurements VALUES (?, ?)",
                 ("old", json.dumps(asdict(_m(0)))))
    if service_tables:
        conn.execute("CREATE TABLE meta ("
                     " key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        conn.execute("CREATE TABLE usage ("
                     " key TEXT PRIMARY KEY, tick INTEGER NOT NULL)")
        conn.execute("CREATE INDEX usage_by_tick ON usage (tick)")
        conn.execute("INSERT INTO meta VALUES ('store_schema', '1')")
        conn.execute("INSERT INTO usage VALUES ('old', 7)")
    conn.commit()
    conn.close()


@pytest.mark.parametrize("service_tables", [False, True])
@pytest.mark.parametrize("cls", [CacheStore, MeasurementStore])
def test_json_payload_file_is_rebuilt_not_misread(tmp_path, cls,
                                                   service_tables):
    _parent_file(tmp_path, service_tables)
    store = cls(tmp_path)
    assert store.get("old") is None
    assert len(store) == 0 and store.corrupt == 0  # rebuilt, not sidelined
    store.put("new", _m(1))
    assert store.get("new") == _m(1)
    store.close()

    # the stamp holds: reopening keeps the new row
    again = cls(tmp_path)
    assert again.get("new") == _m(1)
    assert again._conn.execute("PRAGMA user_version").fetchone() == (
        ROW_FORMAT,
    )
    again.close()

    # no tick of the old row survived, whichever class opened the file
    # first: its usage table is gone, and only the new row holds a tick,
    # stamped if a MeasurementStore wrote it
    raw = sqlite3.connect(str(tmp_path / "measurements.sqlite"))
    tables = {name for (name,) in raw.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'")}
    ticks = raw.execute(
        "SELECT key, tick IS NULL FROM measurements").fetchall()
    raw.close()
    assert "usage" not in tables
    assert ticks == [("new", int(cls is CacheStore))]

    # a MeasurementStore opening the file leaves a plain store's row
    # unstamped: NULL, the coldest tick
    service = MeasurementStore(tmp_path)
    assert service._conn.execute(
        "SELECT tick IS NULL FROM measurements WHERE key = 'new'"
    ).fetchone() == (int(cls is CacheStore),)
    service.close()


# ---------------------------------------------------------------------------
# durability


def test_every_connection_commits_with_synchronous_normal(tmp_path):
    store = MeasurementStore(tmp_path)
    seen: dict[str, int] = {}

    def probe(label: str) -> None:
        (seen[label],) = store._conn.execute(
            "PRAGMA synchronous"
        ).fetchone()

    probe("main")
    t = threading.Thread(target=probe, args=("worker",))
    t.start()
    t.join()
    assert seen == {"main": 1, "worker": 1}  # 1 is NORMAL
    store.close()


def test_put_many_commits_rows_and_ticks_once(tmp_path):
    store = MeasurementStore(tmp_path)
    statements: list = []
    store._conn.set_trace_callback(statements.append)
    store.put_many((f"k{i}", _m(i)) for i in range(3))
    store._conn.set_trace_callback(None)
    assert [s for s in statements if s.upper().startswith("COMMIT")] == [
        "COMMIT"
    ]
    (stamped,) = store._conn.execute(
        "SELECT COUNT(tick) FROM measurements").fetchone()
    assert stamped == 3
    assert len(store.get_many([f"k{i}" for i in range(3)])) == 3
    store.close()


_CHILD = """
import os, sys
from repro.autotune.measure import VariantMeasurement
from repro.engine.cache import CacheStore
from repro.service.store import MeasurementStore

store = {cls}(sys.argv[1])
store.put_many(
    (f"k{{i}}", VariantMeasurement({{"TC": 32 * (i + 1), "BC": 48}}, 16,
                                   1e-4 * (i + 1), 0.5, 20, 100.0))
    for i in range(5)
)
os._exit(0)  # no close, no checkpoint: only the commits themselves
"""


@pytest.mark.parametrize("cls", [CacheStore, MeasurementStore])
def test_commits_survive_a_child_that_exits_hard(tmp_path, cls):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, "-c", _CHILD.format(cls=cls.__name__),
         str(tmp_path)],
        env=env, check=True, timeout=120,
    )
    store = cls(tmp_path)
    found = store.get_many([f"k{i}" for i in range(5)])
    assert found == {f"k{i}": _m(i) for i in range(5)}
    store.close()


# ---------------------------------------------------------------------------
# hit and miss counters


def test_repeated_keys_count_once_per_request(tmp_path):
    """A key asked for twice counts twice, for the store and for the
    :class:`StoreStats` a client reads."""
    from repro.client import connect
    from repro.service.server import ThreadedServer

    with ThreadedServer(cache_dir=tmp_path, drainers=1) as server:
        store = server.server.store
        store.put("k", _m(0))
        found = store.get_many(["k", "k", "absent", "absent"])
        assert found == {"k": _m(0)}
        assert (store.hits, store.misses) == (2, 2)
        stats = connect(server.url).store_stats()
    assert (stats.hits, stats.misses) == (2, 2)
