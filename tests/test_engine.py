"""Sweep engine tests: cache semantics, cross-process determinism, and
the cached-sweep speedup the engine exists for."""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.arch import get_gpu
from repro.autotune.measure import VariantMeasurement
from repro.autotune.space import Parameter, ParameterSpace
from repro.autotune.tuner import Autotuner
from repro.engine import (
    CacheStore,
    SweepEngine,
    build_work_list,
    compile_key,
    measurement_key,
    point_key,
    shard_work,
    stable_hash,
)
from repro.experiments import common
from repro.experiments.runner import main as runner_main
from repro.kernels import get_benchmark
from repro.sim.timing import DEFAULT_PARAMS, ModelParams
from tests.conftest import reference_sweep, reference_tune


@pytest.fixture(autouse=True)
def _reset_experiment_state():
    """Runner tests mutate the process-wide sweep policy; undo it."""
    yield
    common.configure_sweeps()
    common.clear_sweep_cache()


def tiny_space() -> ParameterSpace:
    return ParameterSpace([
        Parameter("TC", (64, 128, 256, 512)),
        Parameter("BC", (48, 144)),
        Parameter("UIF", (1, 3)),
        Parameter("PL", (16,)),
        Parameter("CFLAGS", ("", "-use_fast_math")),
    ])


ATAX = get_benchmark("atax")
K20 = get_gpu("kepler")


# ---------------------------------------------------------------------------
# keys and the store


class TestCacheKeys:
    def test_stable_hash_ignores_dict_order(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_key_is_reproducible(self):
        cfg = {"TC": 64, "BC": 48, "UIF": 1, "PL": 16, "CFLAGS": ""}
        k1 = measurement_key("atax", K20, cfg, 128, DEFAULT_PARAMS)
        k2 = measurement_key("atax", K20, dict(reversed(cfg.items())),
                             128, DEFAULT_PARAMS)
        assert k1 == k2

    def test_key_separates_every_axis(self):
        cfg = {"TC": 64, "BC": 48, "UIF": 1, "PL": 16, "CFLAGS": ""}
        base = measurement_key("atax", K20, cfg, 128, DEFAULT_PARAMS)
        assert measurement_key("bicg", K20, cfg, 128,
                               DEFAULT_PARAMS) != base
        assert measurement_key("atax", get_gpu("fermi"), cfg, 128,
                               DEFAULT_PARAMS) != base
        assert measurement_key("atax", K20, {**cfg, "TC": 128}, 128,
                               DEFAULT_PARAMS) != base
        assert measurement_key("atax", K20, cfg, 256,
                               DEFAULT_PARAMS) != base
        assert measurement_key("atax", K20, cfg, 128,
                               ModelParams(chain_fp=11.0)) != base
        # the measurement protocol is still hashed in, with
        # CACHE_SCHEMA_VERSION 2: caches of that schema keep serving under
        # the same keys
        assert base == (
            "9e59de5edff4ab9f4ccc169afb917a5ce717c32795c5bce9e24fef7740cd7c65"
        )

    @pytest.mark.parametrize("config", [
        {"TC": 64, "BC": 48, "UIF": 1, "PL": 16, "CFLAGS": ""},
        {"CFLAGS": "-use_fast_math", "TC": 1024},
        {"x": 2.5, "y": -0.0, "z": float("inf"), "n": None, "b": True},
        {"name": 'é"\\\n', "big": 10**20, "seq": [1, (2, 3)]},
        {"other": frozenset({1})},  # not JSON: encoded by repr
        {},
    ])
    def test_point_key_hashes_the_canonical_point(self, config):
        """``point_key`` writes the text ``stable_hash`` would dump."""
        ctx = 'ctx "é"'
        assert point_key(ctx, config, 128) == stable_hash(
            {"ctx": ctx, "config": config, "size": 128}
        )

    def test_measurement_roundtrip_including_inf(self, tmp_path):
        m = VariantMeasurement(
            config={"TC": 2048, "BC": 48}, size=64,
            seconds=float("inf"), occupancy=0.0,
            regs_per_thread=32, reg_instructions=0.0,
        )
        CacheStore(tmp_path).put("k", m)
        back = CacheStore(tmp_path).get("k")
        assert back == m and math.isinf(back.seconds)


class TestCacheStore:
    def test_miss_then_hit(self, tmp_path):
        store = CacheStore(tmp_path)
        m = VariantMeasurement(config={"TC": 64}, size=32, seconds=1.5,
                               occupancy=0.5, regs_per_thread=20,
                               reg_instructions=10.0)
        assert store.get("k") is None
        assert store.misses == 1
        store.put("k", m)
        assert store.get("k") == m
        assert store.hits == 1
        assert len(store) == 1

    def test_batch_api_and_clear(self, tmp_path):
        store = CacheStore(tmp_path / "sweeps.sqlite")
        items = {
            f"k{i}": VariantMeasurement(
                config={"TC": i}, size=32, seconds=float(i),
                occupancy=0.5, regs_per_thread=20, reg_instructions=1.0,
            )
            for i in range(500)  # > one SELECT chunk
        }
        store.put_many(items.items())
        found = store.get_many(list(items) + ["absent"])
        assert found == items
        assert store.misses == 1
        store.clear()
        assert len(store) == 0

    def test_persists_across_connections(self, tmp_path):
        m = VariantMeasurement(config={"TC": 64}, size=32, seconds=1.5,
                               occupancy=0.5, regs_per_thread=20,
                               reg_instructions=10.0)
        CacheStore(tmp_path).put("k", m)
        assert CacheStore(tmp_path).get("k") == m


# ---------------------------------------------------------------------------
# work list and sharding


class TestSharding:
    def test_work_list_is_canonical_serial_order(self):
        space = tiny_space()
        items = build_work_list(space, (32, 64))
        expected = [
            (dict(cfg), n) for n in (32, 64) for cfg in space
        ]
        assert [(it.config, it.size) for it in items] == expected
        assert [it.index for it in items] == list(range(len(items)))

    def test_shards_partition_items_by_compile_key(self):
        items = build_work_list(tiny_space(), (32,))
        shards = shard_work(items)
        flat = [it for shard in shards for it in shard]
        assert sorted(it.index for it in flat) == [it.index for it in items]
        owner = {}
        for i, shard in enumerate(shards):
            for it in shard:
                key = compile_key(it.config)
                assert owner.setdefault(key, i) == i, (
                    "compile group split across shards"
                )

    def test_sharding_is_deterministic(self):
        items = build_work_list(tiny_space(), (32, 64))
        a = shard_work(items)
        b = shard_work(list(items))
        assert [[it.index for it in s] for s in a] == [
            [it.index for it in s] for s in b
        ]


# ---------------------------------------------------------------------------
# the engine


class TestSweepEngine:
    SIZES = ATAX.sizes[:2]

    def serial(self):
        return reference_sweep(ATAX, K20, tiny_space(), self.SIZES)

    def test_parallel_matches_serial_exactly(self):
        serial = self.serial()
        engine = SweepEngine(jobs=2)
        par = Autotuner(ATAX, K20, space=tiny_space()).sweep(
            sizes=self.SIZES, engine=engine
        )
        assert par.measurements == serial
        # byte-identical, not merely approximately equal
        assert [json.dumps(vars(m)) for m in par.measurements] == [
            json.dumps(vars(m)) for m in serial
        ]

    def test_cache_miss_then_hit_semantics(self, tmp_path):
        engine = SweepEngine(jobs=1, cache=CacheStore(tmp_path))
        first = engine.sweep(ATAX, K20, tiny_space(), self.SIZES)
        assert engine.last_stats.hits == 0
        assert engine.last_stats.measured == len(first)
        second = engine.sweep(ATAX, K20, tiny_space(), self.SIZES)
        assert engine.last_stats.hits == len(second)
        assert engine.last_stats.measured == 0
        assert second == first == self.serial()

    def test_context_digest_computed_once_per_context(self, tmp_path,
                                                      monkeypatch):
        from repro.engine import engine as engine_module

        calls = []
        real = engine_module.context_key

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "context_key", counting)
        engine = SweepEngine(jobs=1, cache=CacheStore(tmp_path))
        for _ in range(3):
            engine.sweep(ATAX, K20, tiny_space(), self.SIZES)
        assert calls == ["atax"]
        engine.sweep(ATAX, K20, tiny_space(), self.SIZES,
                     params=ModelParams(chain_fp=11.0))
        assert calls == ["atax", "atax"]

    def test_context_memo_at_its_limit_still_serves_the_cache(
            self, tmp_path, monkeypatch):
        """An engine whose context memo holds two digests sweeps three
        contexts twice: the second pass computes every digest again and
        still serves each point from the store, byte for byte."""
        from repro.engine import engine as engine_module

        calls = []
        real = engine_module.context_key

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "context_key", counting)
        contexts = [(ATAX, K20), (ATAX, get_gpu("fermi")),
                    (get_benchmark("bicg"), K20)]
        engine = SweepEngine(jobs=1, cache=CacheStore(tmp_path))
        engine._contexts.limit = 2

        def sweep_all():
            return [json.dumps(vars(m)) for bm, gpu in contexts
                    for m in engine.sweep(bm, gpu, tiny_space(), self.SIZES)]

        first = sweep_all()
        assert engine.total_hits == 0
        assert sweep_all() == first
        assert engine.total_hits == engine.total_measured == len(first)
        assert len(calls) == 2 * len(contexts)
        assert len(engine._contexts) <= 2

    def test_engines_register_no_memo(self):
        from repro.util.memo import REGISTRY

        before = len(REGISTRY)
        for _ in range(100):
            SweepEngine(jobs=1).close()
        assert len(REGISTRY) == before

    def test_parallel_cached_still_identical(self, tmp_path):
        serial = self.serial()
        engine = SweepEngine(jobs=2, cache=CacheStore(tmp_path))
        assert engine.sweep(ATAX, K20, tiny_space(), self.SIZES) == serial
        assert engine.sweep(ATAX, K20, tiny_space(), self.SIZES) == serial

    def test_model_params_change_invalidates_cache(self, tmp_path):
        store = CacheStore(tmp_path)
        engine = SweepEngine(jobs=1, cache=store)
        engine.sweep(ATAX, K20, tiny_space(), self.SIZES)
        n = len(store)
        recal = ModelParams(chain_fp=11.0)
        engine.sweep(ATAX, K20, tiny_space(), self.SIZES, params=recal)
        assert engine.last_stats.hits == 0, (
            "recalibrated model must not be served stale measurements"
        )
        assert len(store) == 2 * n

    def test_kernel_spec_edit_invalidates_cache(self, tmp_path):
        """Editing a kernel's specs (same name!) must not serve stale
        measurements."""
        import dataclasses

        engine = SweepEngine(jobs=1, cache=CacheStore(tmp_path))
        engine.sweep(ATAX, K20, tiny_space(), self.SIZES)
        edited = dataclasses.replace(ATAX, specs=ATAX.specs[:1])
        engine.sweep(edited, K20, tiny_space(), self.SIZES)
        assert engine.last_stats.hits == 0

    def test_unregistered_benchmark_parallel_falls_back_inline(self):
        """A benchmark object that is not the registered one carries
        unpicklable closures; jobs>1 must degrade to inline, not crash."""
        import dataclasses

        copy = dataclasses.replace(ATAX)
        engine = SweepEngine(jobs=2)
        out = engine.sweep(copy, K20, tiny_space(), self.SIZES)
        assert out == self.serial()

    def test_pool_is_reused_across_runs_and_closeable(self):
        engine = SweepEngine(jobs=2)
        engine.sweep(ATAX, K20, tiny_space(), self.SIZES)
        pids = sorted(w.proc.pid for w in engine._executor._workers)
        assert pids
        engine.sweep(ATAX, K20, tiny_space(), (ATAX.sizes[2],))
        assert sorted(
            w.proc.pid for w in engine._executor._workers
        ) == pids, "workers were not reused"
        engine.close()
        assert engine._executor._workers == []

    def test_cached_rerun_at_least_5x_faster(self, tmp_path,
                                             cold_module_cache):
        """The acceptance bar: a warm sweep is >= 5x the cold one.

        Best of three alternating rounds on each side, each cold round
        into a new cache with empty module caches, so a burst of load on
        a shared host slows both sides rather than one."""
        space = common.reduced_space()
        sizes = ATAX.sizes[::2]
        cold_ts, warm_ts = [], []
        for round_ in range(3):
            cold_module_cache()
            engine = SweepEngine(
                jobs=1, cache=CacheStore(tmp_path / str(round_))
            )
            t0 = time.perf_counter()
            cold = engine.sweep(ATAX, K20, space, sizes)
            cold_ts.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            warm = engine.sweep(ATAX, K20, space, sizes)
            warm_ts.append(time.perf_counter() - t0)
            assert warm == cold
            assert engine.last_stats.hit_rate == 1.0
        cold_t, warm_t = min(cold_ts), min(warm_ts)
        assert cold_t >= 5.0 * warm_t, (
            f"cached sweep only {cold_t / warm_t:.1f}x faster "
            f"(cold {cold_t:.3f}s, warm {warm_t:.3f}s)"
        )


class TestTunerIntegration:
    def test_measure_many_matches_measure(self):
        from repro.autotune.measure import Measurer

        space = tiny_space()
        pairs = [(cfg, 64) for cfg in space]
        batch = Measurer(ATAX, K20).measure_many(pairs)
        single = [Measurer(ATAX, K20).measure(c, s) for c, s in pairs]
        assert batch == single

    def test_exhaustive_tune_via_engine_identical(self, tmp_path):
        base, measured = reference_tune(ATAX, K20, tiny_space(), 64)
        engine = SweepEngine(jobs=2, cache=CacheStore(tmp_path))
        for _ in range(2):  # second pass fully cache-served
            out = Autotuner(ATAX, K20, space=tiny_space()).tune(
                size=64, search="exhaustive", engine=engine
            )
            assert out.best_config == base.best_config
            assert out.best_seconds == base.best_value
            assert out.search.history == base.history
            assert [m.seconds for m in out.results.measurements] == [
                m.seconds for m in measured
            ]

    def test_static_search_routes_through_engine(self, tmp_path):
        base, _ = reference_tune(ATAX, K20, tiny_space(), 64, "static")
        engine = SweepEngine(jobs=2, cache=CacheStore(tmp_path))
        out = Autotuner(ATAX, K20, space=tiny_space()).tune(
            size=64, search="static", engine=engine
        )
        assert out.best_config == base.best_config
        assert out.search.history == base.history
        assert out.search.space_reduction == base.space_reduction
        assert engine.last_stats is not None, "engine was never consulted"

    def test_tuner_jobs_cache_shorthand(self, tmp_path):
        serial = reference_sweep(ATAX, K20, tiny_space(), (64,))
        cached = Autotuner(ATAX, K20, space=tiny_space()).sweep(
            sizes=(64,), jobs=2, cache=tmp_path
        )
        assert cached.measurements == serial


# ---------------------------------------------------------------------------
# the fig6 acceptance bar: every strategy batches through the engine


class TestFig6Batching:
    def test_warm_fig6_rerun_measures_nothing(self, tmp_path):
        """A fig6 re-run against a warm cache -- exhaustive, static, RB,
        and all four black-box strategies -- performs zero fresh
        measurements."""
        from repro.experiments import fig6_search_improvement

        common.configure_sweeps(jobs=1, cache_dir=tmp_path)
        kwargs = dict(archs=["kepler"], kernels=["atax"])
        cold = fig6_search_improvement.run(**kwargs)
        engine = common.shared_engine()
        measured = engine.total_measured
        assert measured > 0
        common.clear_sweep_cache()
        warm = fig6_search_improvement.run(**kwargs)
        assert engine.total_measured == measured, (
            "warm fig6 re-run performed fresh measurements"
        )
        assert warm == cold

    def test_fig6_runs_all_black_box_strategies(self, tmp_path):
        from repro.experiments import fig6_search_improvement

        common.configure_sweeps(jobs=1, cache_dir=tmp_path)
        res = fig6_search_improvement.run(archs=["kepler"],
                                          kernels=["atax"])
        row = res["rows"][0]
        assert res["heuristics"] == ["random", "annealing", "genetic",
                                     "simplex"]
        for name in res["heuristics"]:
            # same measurement budget as the static module
            assert 0 < row[f"{name}_evals"] <= row["static_evals"]
            assert row[f"{name}_quality"] >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# the runner CLI


class TestRunnerCLI:
    ARGS = ["--arch", "kepler", "--kernel", "atax", "fig4", "table5"]

    def test_parallel_cached_output_identical_to_serial(self, tmp_path,
                                                        capsys):
        serial_out = tmp_path / "serial"
        par_out = tmp_path / "parallel"
        warm_out = tmp_path / "warm"
        cache = tmp_path / "cache"

        assert runner_main(
            ["--no-cache", "--out", str(serial_out)] + self.ARGS
        ) == 0
        common.clear_sweep_cache()
        assert runner_main(
            ["--jobs", "2", "--cache-dir", str(cache),
             "--out", str(par_out)] + self.ARGS
        ) == 0
        common.clear_sweep_cache()
        assert runner_main(
            ["--jobs", "2", "--cache-dir", str(cache),
             "--out", str(warm_out)] + self.ARGS
        ) == 0
        capsys.readouterr()

        for name in ("fig4", "table5"):
            expected = (serial_out / f"{name}.txt").read_text()
            assert (par_out / f"{name}.txt").read_text() == expected
            assert (warm_out / f"{name}.txt").read_text() == expected

    def test_experiments_print_in_the_requested_order(self, capsys):
        assert runner_main(
            ["--jobs", "2", "--no-cache", "table1", "table2", "fig3"]
        ) == 0
        out = capsys.readouterr().out
        # printed strictly in the requested order
        assert out.index("##### table1") < out.index("##### table2")
        assert out.index("##### table2") < out.index("##### fig3")

    def test_static_experiment_opens_no_cache(self, tmp_path, capsys):
        assert runner_main(["table1", "--cache-dir", str(tmp_path)]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_bad_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            runner_main(["--jobs", "-1", "table1"])
