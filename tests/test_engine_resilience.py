"""Resilience-layer tests: chaos-driven worker supervision, retry and
backoff accounting, poison-shard bisection, incremental checkpointing,
and cache hardening.

The invariant under test throughout: a sweep under injected faults
returns results *byte-identical* to a clean serial run, never aborts,
and accounts for every injected fault in ``SweepStats`` /
``ShardFailure`` records.  The seeded chaos campaign (marked ``chaos``)
scales with ``REPRO_CHAOS_BUDGET`` like the fuzz campaigns do.
"""

from __future__ import annotations

import json
import os
import sqlite3
import warnings

import pytest

from repro.arch import get_gpu
from repro.autotune.measure import Measurer, MeasurementError
from repro.autotune.space import Parameter, ParameterSpace
from repro import obs
from repro.engine import (
    BatchError,
    CacheStore,
    PoolExecutor,
    ProgressReporter,
    RetryPolicy,
    ShardFailure,
    SweepEngine,
)
from repro.engine import chaos
from repro.engine.work import split_shard
from repro.kernels import get_benchmark
from tests.conftest import row_key, row_numbers

ATAX = get_benchmark("atax")
K20 = get_gpu("kepler")

FAST = RetryPolicy(backoff_base_s=0.005, backoff_max_s=0.05)


def tiny_space() -> ParameterSpace:
    # 4 compile keys (UIF x CFLAGS) so jobs=2 yields two real shards
    return ParameterSpace([
        Parameter("TC", (64, 128, 256, 512)),
        Parameter("BC", (48, 144)),
        Parameter("UIF", (1, 3)),
        Parameter("PL", (16,)),
        Parameter("CFLAGS", ("", "-use_fast_math")),
    ])


SIZES = ATAX.sizes[:2]


@pytest.fixture(scope="module")
def serial():
    """The clean serial reference every chaos run must reproduce."""
    return SweepEngine(jobs=1).sweep(ATAX, K20, tiny_space(), SIZES)


@pytest.fixture(autouse=True)
def _no_leftover_chaos():
    chaos.uninstall()
    yield
    chaos.uninstall()


def assert_byte_identical(out, serial):
    assert [json.dumps(vars(m)) for m in out] == [
        json.dumps(vars(m)) for m in serial
    ]


# ---------------------------------------------------------------------------
# retry / backoff machinery


class TestRetryPolicy:
    def test_backoff_deterministic_and_bounded(self):
        p = RetryPolicy(backoff_base_s=0.1, backoff_multiplier=2.0,
                        backoff_max_s=1.0, jitter=0.25)
        key = (1, 2, 3)
        assert p.backoff(1, key) == p.backoff(1, key)
        for attempt in (1, 2, 3, 8):
            b = p.backoff(attempt, key)
            base = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            assert base <= b <= base * 1.25
        # jitter decorrelates shards
        assert p.backoff(1, (1,)) != p.backoff(1, (2,))

    def test_split_shard_terminates_at_single_items(self):
        shard = list(range(7))
        halves = split_shard(shard)
        assert halves[0] + halves[1] == shard
        assert all(halves)


class TestChaosSpec:
    def test_roundtrip_through_env(self):
        spec = chaos.ChaosSpec(seed=7, kill_rate=0.5, only_indices=(1, 2))
        with chaos.injected(spec):
            assert chaos.active() == spec
        assert chaos.active() is None

    def test_decisions_are_deterministic(self):
        spec = chaos.ChaosSpec(seed=3, raise_rate=0.5)
        with chaos.injected(spec):
            outcomes = []
            for _ in range(2):
                row = []
                for shard in ((0, 1), (2, 3), (4, 5), (6, 7)):
                    try:
                        chaos.maybe_inject(shard, 0)
                        row.append(False)
                    except chaos.ChaosError:
                        row.append(True)
                outcomes.append(row)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])


# ---------------------------------------------------------------------------
# supervision: recovery from every fault kind


class TestFaultRecovery:
    def test_inline_raise_retry_accounting(self, serial):
        with chaos.injected(chaos.ChaosSpec(seed=1, raise_rate=1.0,
                                            attempts=1)):
            engine = SweepEngine(jobs=1, policy=FAST)
            out = engine.sweep(ATAX, K20, tiny_space(), SIZES)
        assert_byte_identical(out, serial)
        stats = engine.last_stats
        # one shard per compile group (4 in tiny_space), each faulted once
        assert stats.retries == 4
        assert stats.recovered == 4
        assert stats.failures == 0
        assert engine.last_failures == []

    def test_worker_kill_recovery(self, serial):
        """os._exit mid-shard (an OOM-kill stand-in): the worker death
        is detected, the worker respawned, the shard retried."""
        with chaos.injected(chaos.ChaosSpec(seed=2, kill_rate=1.0,
                                            attempts=1)):
            engine = SweepEngine(jobs=2, policy=FAST)
            out = engine.sweep(ATAX, K20, tiny_space(), SIZES)
            report = engine._executor.last_report
            engine.close()
        assert_byte_identical(out, serial)
        stats = engine.last_stats
        assert stats.failures == 0
        assert stats.retries == stats.recovered == len(report.events) == 4
        assert {rec.fate for _, rec in report.events} == {"worker-died"}
        assert all("exited with code" in rec.error
                   for _, rec in report.events)

    def test_shard_timeout_kill_and_retry(self, serial):
        """A shard hung past the deadline has its worker killed and is
        retried; accounting says 'timeout'."""
        policy = RetryPolicy(shard_timeout_s=0.3, backoff_base_s=0.005)
        with chaos.injected(chaos.ChaosSpec(seed=3, delay_rate=1.0,
                                            delay_s=5.0, attempts=1)):
            engine = SweepEngine(jobs=2, policy=policy)
            out = engine.sweep(ATAX, K20, tiny_space(), SIZES)
            report = engine._executor.last_report
            engine.close()
        assert_byte_identical(out, serial)
        assert engine.last_stats.failures == 0
        assert engine.last_stats.recovered == 4
        assert {rec.fate for _, rec in report.events} == {"timeout"}
        assert all(rec.elapsed_s >= 0.3 for _, rec in report.events)

    def test_poison_shard_bisection_quarantines_exact_item(self, serial):
        """A work item that fails every attempt is isolated by repeated
        bisection and quarantined as a ShardFailure; the sweep does not
        abort and every other item is byte-identical."""
        poison = 5
        spec = chaos.ChaosSpec(seed=4, raise_rate=1.0, attempts=-1,
                               only_indices=(poison,))
        with chaos.injected(spec):
            engine = SweepEngine(
                jobs=1, policy=RetryPolicy(max_attempts=2,
                                           backoff_base_s=0.002),
            )
            out = engine.sweep(ATAX, K20, tiny_space(), SIZES)
        assert out[poison] is None
        assert [m for i, m in enumerate(out) if i != poison] == [
            m for i, m in enumerate(serial) if i != poison
        ]
        assert len(engine.last_failures) == 1
        failure = engine.last_failures[0]
        assert isinstance(failure, ShardFailure)
        assert failure.indices == (poison,)
        # bisection starts from the poison item's compile-group shard
        # (sharding is per compile group; tiny_space has 4 equal groups)
        assert failure.bisected_from == len(serial) // 4
        assert len(failure.attempts) == 2
        assert all("ChaosError" in rec.error for rec in failure.attempts)
        stats = engine.last_stats
        assert stats.failures == 1
        assert stats.measured == len(serial) - 1

    def test_a_partial_batch_raises_after_it_is_checkpointed(self, tmp_path,
                                                              serial):
        """A run batch with a quarantined item raises BatchError once
        every other item is checkpointed and counted: the rerun is warm,
        and the engine's metrics still reconcile."""
        poison = 5
        store = CacheStore(tmp_path)
        pairs = [(m.config, m.size) for m in serial]
        spec = chaos.ChaosSpec(seed=4, raise_rate=1.0, attempts=-1,
                               only_indices=(poison,))
        engine = SweepEngine(
            jobs=1, cache=store,
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.002),
        )
        obs.enable(trace=False)
        try:
            with chaos.injected(spec), pytest.raises(BatchError) as e:
                engine.run(Measurer(ATAX, K20), pairs)
            labels = {"kernel": ATAX.name, "gpu": K20.name}
            points, hits, measured, quarantined = (
                obs.metrics.value(name, **labels) for name in (
                    "engine.points", "engine.cache_hits", "engine.measured",
                    "engine.quarantined")
            )
        finally:
            obs.disable()
        assert e.value.failures == tuple(engine.last_failures)
        assert [f.indices for f in e.value.failures] == [(poison,)]
        assert "ChaosError" in str(e.value)
        assert points == hits + measured + quarantined
        assert (points, measured, quarantined) == (
            len(serial), len(serial) - 1, 1)
        assert len(store) == len(serial) - 1

        out = engine.run(Measurer(ATAX, K20), pairs)
        assert (engine.last_stats.hits, engine.last_stats.measured) == (
            len(serial) - 1, 1)
        assert_byte_identical(out, serial)

    def test_parallel_path_failure_degrades_inline(self, serial):
        """If no worker can be spawned at all, the run warns and
        completes inline rather than failing."""

        class NoForkExecutor(PoolExecutor):
            def _spawn_worker(self):
                raise OSError("spawn refused (chaos)")

        engine = SweepEngine(jobs=2, policy=FAST)
        engine._executor = NoForkExecutor(2, policy=FAST)
        with pytest.warns(RuntimeWarning, match="degrading to inline"):
            out = engine.sweep(ATAX, K20, tiny_space(), SIZES)
        assert_byte_identical(out, serial)
        assert engine._executor.last_report.degraded
        assert engine.last_stats.failures == 0

    def test_measurement_error_names_the_point(self):
        measurer = Measurer(ATAX, K20)
        with pytest.raises(MeasurementError) as exc:
            # BC missing -> the underlying KeyError is wrapped with the
            # exact (config, size) point for ShardFailure records
            measurer.measure_many([({"TC": 64}, 32)])
        assert exc.value.size == 32
        assert "TC" in str(exc.value)


# ---------------------------------------------------------------------------
# incremental checkpointing


class _InterruptAfterShards(ProgressReporter):
    """Raises KeyboardInterrupt once ``limit`` shards have completed."""

    def __init__(self, limit: int = 1):
        self.limit = limit
        self.shards = 0

    def advance(self, n: int = 1) -> None:
        if n > 0:
            self.shards += 1
            if self.shards >= self.limit:
                raise KeyboardInterrupt


class TestIncrementalCheckpointing:
    def test_interrupted_sweep_resumes_warm_and_identical(self, tmp_path,
                                                          serial):
        """Kill a sweep after its first completed shard: that shard is
        already persisted, the rerun serves it from cache, and the final
        results are byte-identical to an uninterrupted run."""
        store = CacheStore(tmp_path)
        engine = SweepEngine(jobs=2, cache=store,
                             progress=_InterruptAfterShards(1))
        with pytest.raises(KeyboardInterrupt):
            engine.sweep(ATAX, K20, tiny_space(), SIZES)
        checkpointed = len(store)
        assert checkpointed > 0, "no shard was persisted before the kill"

        resumed = SweepEngine(jobs=2, cache=store)
        out = resumed.sweep(ATAX, K20, tiny_space(), SIZES)
        resumed.close()
        assert resumed.last_stats.hits == checkpointed
        assert resumed.last_stats.measured == len(serial) - checkpointed
        assert_byte_identical(out, serial)

    def test_quarantine_does_not_poison_the_cache(self, tmp_path, serial):
        """After a poisoned run, a clean rerun only re-measures the
        quarantined item -- everything else was checkpointed."""
        poison = 5
        store = CacheStore(tmp_path)
        spec = chaos.ChaosSpec(seed=5, raise_rate=1.0, attempts=-1,
                               only_indices=(poison,))
        with chaos.injected(spec):
            engine = SweepEngine(
                jobs=1, cache=store,
                policy=RetryPolicy(max_attempts=2, backoff_base_s=0.002),
            )
            engine.sweep(ATAX, K20, tiny_space(), SIZES)
        assert len(store) == len(serial) - 1

        clean = SweepEngine(jobs=1, cache=store)
        out = clean.sweep(ATAX, K20, tiny_space(), SIZES)
        assert clean.last_stats.measured == 1
        assert clean.last_stats.hits == len(serial) - 1
        assert_byte_identical(out, serial)


# ---------------------------------------------------------------------------
# cache hardening


class TestCacheHardening:
    def test_wal_mode_and_busy_timeout(self, tmp_path):
        store = CacheStore(tmp_path)
        (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        (timeout,) = store._conn.execute("PRAGMA busy_timeout").fetchone()
        assert timeout >= 1000

    def test_concurrent_stores_interleave_writes(self, tmp_path, serial):
        a, b = CacheStore(tmp_path), CacheStore(tmp_path)
        for i in range(20):
            (a if i % 2 else b).put(row_key(f"k{i}"), serial[i])
        assert len(a.get_many([row_key(f"k{i}") for i in range(20)])) == 20
        a.close(), b.close()

    def test_corrupt_payload_quarantined_and_remeasured(self, tmp_path,
                                                        serial):
        store = CacheStore(tmp_path)
        engine = SweepEngine(jobs=1, cache=store)
        engine.sweep(ATAX, K20, tiny_space(), SIZES)
        bad = chaos.corrupt_rows(store, seed=0, limit=3)
        assert len(bad) == 3

        out = engine.sweep(ATAX, K20, tiny_space(), SIZES)
        assert_byte_identical(out, serial)
        stats = engine.last_stats
        assert stats.corrupt == 3
        assert stats.measured == 3  # only the corrupt points remeasured
        assert stats.hits == len(serial) - 3
        assert store.corrupt == 3
        assert len(store.quarantined()) == 3
        assert {k for k, _ in store.quarantined()} == set(bad)

        # the re-measurement repaired the store in place
        engine.sweep(ATAX, K20, tiny_space(), SIZES)
        assert engine.last_stats.hits == len(serial)
        assert engine.last_stats.corrupt == 0

    def test_corrupt_database_file_moved_aside_and_rebuilt(self, tmp_path,
                                                           serial):
        db = tmp_path / "measurements.sqlite"
        db.write_bytes(b"definitely not a sqlite database" * 64)
        store = CacheStore(tmp_path)
        assert store.recovered_path is not None
        assert store.recovered_path.exists()
        assert store.recovered_path.name.endswith(".corrupt-1")
        assert len(store) == 0
        store.put(row_key("k"), serial[0])
        assert store.get(row_key("k")) == row_numbers(serial[0])
        store.close()

    def test_context_manager_closes_deterministically(self, tmp_path,
                                                      serial):
        with CacheStore(tmp_path) as store:
            store.put(row_key("k"), serial[0])
            assert store.get(row_key("k")) == row_numbers(serial[0])
        with pytest.raises(sqlite3.ProgrammingError):
            store.get(row_key("k"))
        store.close()  # idempotent

    def test_engine_context_manager_closes_owned_store_only(self, tmp_path,
                                                            serial):
        with SweepEngine(jobs=1, cache=tmp_path / "owned") as engine:
            engine.sweep(ATAX, K20, tiny_space(), (SIZES[0],))
        with pytest.raises(sqlite3.ProgrammingError):
            engine.cache.get(row_key("k"))

        shared = CacheStore(tmp_path / "shared")
        with SweepEngine(jobs=1, cache=shared) as engine:
            engine.sweep(ATAX, K20, tiny_space(), (SIZES[0],))
        shared.put(row_key("k"), serial[0])  # caller's store stays open
        shared.close()


# ---------------------------------------------------------------------------
# executor lifecycle


class TestExecutorLifecycle:
    def test_workers_persist_across_runs_and_respawn_after_close(self,
                                                                 serial):
        engine = SweepEngine(jobs=2)
        engine.sweep(ATAX, K20, tiny_space(), SIZES)
        pids = sorted(w.proc.pid for w in engine._executor._workers)
        assert pids
        engine.sweep(ATAX, K20, tiny_space(), (ATAX.sizes[2],))
        assert sorted(
            w.proc.pid for w in engine._executor._workers
        ) == pids, "workers were not reused"
        engine.close()
        assert engine._executor._workers == []
        # still usable: workers respawn on demand
        out = engine.sweep(ATAX, K20, tiny_space(), SIZES)
        assert_byte_identical(out, serial)
        engine.close()

    def test_close_is_clean_and_repeatable(self):
        executor = PoolExecutor(2)
        executor.close()
        executor.close()
        assert executor._workers == []


# ---------------------------------------------------------------------------
# the seeded chaos campaign (budget-scaled, like the fuzz campaigns)


@pytest.mark.chaos
class TestChaosCampaign:
    def test_seeded_campaign_is_always_byte_identical(self, serial):
        """Random mixes of kills, raises, and deadline-busting delays,
        one spec per seed: the sweep must always return byte-identical
        results with no quarantines and every fault accounted for."""
        budget = int(os.environ.get("REPRO_CHAOS_BUDGET", "3"))
        policy = RetryPolicy(shard_timeout_s=0.3, backoff_base_s=0.005,
                             max_attempts=4)
        for seed in range(budget):
            spec = chaos.ChaosSpec(
                seed=seed, kill_rate=0.4, raise_rate=0.4,
                delay_rate=0.3, delay_s=1.0, attempts=1,
            )
            with chaos.injected(spec):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    engine = SweepEngine(jobs=2, policy=policy)
                    out = engine.sweep(ATAX, K20, tiny_space(), SIZES)
                    report = engine._executor.last_report
                    engine.close()
            assert_byte_identical(out, serial)
            stats = engine.last_stats
            assert stats.failures == 0, f"seed {seed} quarantined work"
            assert stats.retries == len(report.events), (
                f"seed {seed}: {stats.retries} retries vs "
                f"{len(report.events)} recorded faults"
            )
            assert stats.recovered > 0 or not report.events
