"""Observability-layer tests: deterministic span identity, worker buffer
shipping, SweepStats/metrics reconciliation, export schema validation,
and the runner's ``--trace``/``--metrics`` integration.

The headline invariant: the span tree of a sweep (IDs, parentage, span
counts -- not timestamps) is *identical* at any ``--jobs`` level, clean
or under seeded chaos, because span IDs are pure functions of
``(parent, name, key)`` and sharding is jobs-independent.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.arch import get_gpu
from repro.autotune.space import Parameter, ParameterSpace
from repro.codegen.compiler import CompileOptions, compile_module
from repro.engine import CacheStore, RetryPolicy, SweepEngine, chaos
from repro.experiments import common
from repro.experiments.runner import main as runner_main
from repro.kernels import get_benchmark
from repro.obs.cli import main as cli_main
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_metrics, validate_trace
from repro.obs.trace import (
    NULL_SPAN,
    ROOT,
    Span,
    Tracer,
    ascii_tree,
    child_id,
    chrome_trace,
    spans_from_chrome,
)
from repro.sim.emulator import emulate_kernel, run_benchmark_emulated
from repro.util.rng import rng_for

ATAX = get_benchmark("atax")
K20 = get_gpu("kepler")

FAST = RetryPolicy(backoff_base_s=0.005, backoff_max_s=0.05)


def tiny_space() -> ParameterSpace:
    # 4 compile keys (UIF x CFLAGS) -> 4 shards at any jobs level
    return ParameterSpace([
        Parameter("TC", (64, 128, 256, 512)),
        Parameter("BC", (48, 144)),
        Parameter("UIF", (1, 3)),
        Parameter("PL", (16,)),
        Parameter("CFLAGS", ("", "-use_fast_math")),
    ])


SIZES = ATAX.sizes[:2]


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Every test starts and ends on the disabled fast path."""
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(autouse=True)
def _no_leftover_chaos():
    chaos.uninstall()
    yield
    chaos.uninstall()


# ---------------------------------------------------------------------------
# span identity


class TestChildId:
    def test_pure_and_stable(self):
        a = child_id("ab" * 8, "measure", 7)
        assert a == child_id("ab" * 8, "measure", 7)
        assert len(a) == 16 and set(a) <= set("0123456789abcdef")

    def test_every_component_separates(self):
        base = child_id("ab" * 8, "measure", 7)
        assert child_id("cd" * 8, "measure", 7) != base
        assert child_id("ab" * 8, "attempt", 7) != base
        assert child_id("ab" * 8, "measure", 8) != base
        assert child_id("ab" * 8, "measure", 7, occurrence=1) != base


class TestTracer:
    def test_nesting_allocates_deterministic_ids(self):
        t = Tracer()
        with t.span("sweep", key="s") as outer:
            assert t.current_parent == outer.span_id
            with t.span("shard", key=[0, 1]) as inner:
                assert inner.parent_id == outer.span_id
                assert inner.span_id == child_id(
                    outer.span_id, "shard", [0, 1]
                )
        assert t.current_parent == ROOT
        # closed inner-first
        assert [s.name for s in t.spans] == ["shard", "sweep"]

    def test_repeated_siblings_disambiguated_in_program_order(self):
        t = Tracer()
        with t.span("round", key=0):
            pass
        with t.span("round", key=0):
            pass
        a, b = t.spans
        assert a.span_id != b.span_id
        assert a.span_id == child_id(ROOT, "round", 0, occurrence=0)
        assert b.span_id == child_id(ROOT, "round", 0, occurrence=1)

    def test_attach_parents_under_remote_id(self):
        t = Tracer()
        remote = "ef" * 8
        with t.attach(remote):
            with t.span("measure", key=3) as sp:
                pass
            t.instant("note")
        assert sp.parent_id == remote
        assert sp.span_id == child_id(remote, "measure", 3)
        assert t.instants[0].parent_id == remote

    def test_drain_and_absorb_round_trip(self):
        worker, main = Tracer(), Tracer()
        with worker.span("measure", key=1):
            worker.instant("chaos.delay")
        buffer = worker.drain()
        assert worker.spans == [] and worker.instants == []
        main.absorb(buffer)
        main.absorb(None)  # untraced reply ships no buffer
        assert [s.name for s in main.spans] == ["measure"]
        assert [i.name for i in main.instants] == ["chaos.delay"]

    def test_capture_ships_only_nonempty_buffers(self):
        parent = "ab" * 8
        handle = obs.begin_capture(parent)
        with obs.span("measure", key=3):
            pass
        spans, instants = obs.end_capture(handle)
        assert obs.tracer is None  # prior (disabled) state restored
        assert spans[0].parent_id == parent
        assert spans[0].span_id == child_id(parent, "measure", 3)
        assert instants == []
        handle = obs.begin_capture(parent)
        assert obs.end_capture(handle) is None


class TestDisabledFastPath:
    def test_every_facade_call_degrades_to_noop(self):
        assert not obs.enabled()
        with obs.span("sweep", key="x") as sp:
            assert sp is NULL_SPAN
            sp.annotate(points=1)
        with obs.attach("ab" * 8):
            assert obs.current_parent_id() == ROOT
        obs.instant("note")
        obs.record_span("ab" * 8, "", "shard", None, 0.0, 0.0)
        obs.add("engine.measured", 5, kernel="atax")
        obs.set_gauge("pool.queue_depth", 3)
        obs.observe("engine.run_seconds", 0.1)
        obs.absorb(([], []))
        assert obs.tracer is None and obs.metrics is None
        assert obs.render_tree() == "(tracing disabled)"

    def test_enable_installs_fresh_collectors(self):
        obs.enable()
        assert obs.enabled()
        obs.add("engine.runs")
        first = obs.metrics
        obs.enable()  # re-enabling replaces, not accumulates
        assert obs.metrics is not first
        assert obs.metrics.value("engine.runs") == 0


# ---------------------------------------------------------------------------
# metrics registry


class TestMetricsRegistry:
    def test_counter_label_separation(self):
        m = MetricsRegistry()
        m.add("engine.measured", 3, kernel="atax")
        m.add("engine.measured", 2, kernel="atax")
        m.add("engine.measured", 7, kernel="bicg")
        assert m.value("engine.measured", kernel="atax") == 5
        assert m.value("engine.measured", kernel="bicg") == 7
        assert m.value("engine.measured", kernel="mvt") == 0

    def test_gauge_last_write_wins(self):
        m = MetricsRegistry()
        m.set_gauge("pool.queue_depth", 5)
        m.set_gauge("pool.queue_depth", 2)
        assert m.value("pool.queue_depth") == 2

    def test_histogram_accounting(self):
        m = MetricsRegistry()
        for v in (1e-6, 0.5, 2000.0):
            m.observe("engine.run_seconds", v)
        snap = m.snapshot()
        assert validate_metrics(snap) == []
        (h,) = snap["histograms"]
        assert h["count"] == 3
        assert h["min"] == 1e-6 and h["max"] == 2000.0
        assert sum(h["buckets"]) == h["count"]
        assert h["buckets"][-1] == 1  # 2000s overflows the last bound

    def test_absorb_cache_stats_mirrors_not_accumulates(self, tmp_path):
        store = CacheStore(tmp_path)
        store.get("absent")
        m = MetricsRegistry()
        m.absorb_cache_stats(store)
        m.absorb_cache_stats(store)  # idempotent: gauges, not counters
        assert m.value("cache.misses") == 1
        assert m.value("cache.hits") == 0


# ---------------------------------------------------------------------------
# export + validation


class TestExportSchema:
    def test_chrome_round_trip_and_tree(self):
        t = Tracer()
        with t.span("sweep", key="k", args={"points": 4}):
            t.instant("note", args={"message": "hi"})
        doc = chrome_trace(t.spans, t.instants)
        assert validate_trace(doc) == []
        spans, instants = spans_from_chrome(doc)
        assert len(spans) == 1 and len(instants) == 1
        assert spans[0].span_id == t.spans[0].span_id
        assert spans[0].args["points"] == 4
        assert instants[0].parent_id == t.spans[0].span_id
        tree = ascii_tree(spans, instants)
        assert "sweep (1)" in tree and "! note (1)" in tree

    def test_validator_reports_every_defect(self):
        bad = {
            "metadata": {"schema": "nope"},
            "traceEvents": [
                {"ph": "X", "name": "x", "ts": 0, "dur": -1, "pid": 1,
                 "tid": 0, "args": {"span_id": "zz", "parent_id": "1234"}},
                {"ph": "q"},
            ],
        }
        problems = validate_trace(bad)
        assert any("schema" in p for p in problems)
        assert any("dur" in p for p in problems)
        assert any("span_id" in p for p in problems)
        assert any("ph" in p for p in problems)

    def test_dangling_span_parent_is_structural(self):
        orphan = Span("a" * 16, "b" * 16, "shard", None, 0.0, 1.0, 1)
        problems = validate_trace(chrome_trace([orphan], []))
        assert any("not in file" in p for p in problems)

    def test_dangling_instant_parent_is_tolerated(self):
        # a chaos-killed worker's instants may outlive their span
        t = Tracer()
        t.instant("fault.worker-died", parent_id="c" * 16)
        assert validate_trace(chrome_trace([], t.instants)) == []

    def test_metrics_validator_rejects_malformed_rows(self):
        assert validate_metrics([]) == ["metrics document is not a JSON object"]
        bad = MetricsRegistry().snapshot()
        bad["counters"].append({"name": "", "labels": None, "value": "x"})
        problems = validate_metrics(bad)
        assert any("name" in p for p in problems)
        assert any("labels" in p for p in problems)
        assert any("value" in p for p in problems)


# ---------------------------------------------------------------------------
# sweep tracing: determinism across jobs, worker shipping, reconciliation


def traced_sweep(jobs: int, spec: chaos.ChaosSpec | None = None):
    """One fully traced sweep; returns everything it collected."""
    obs.enable()
    with SweepEngine(jobs=jobs, policy=FAST) as engine:
        if spec is not None:
            with chaos.injected(spec):
                out = engine.sweep(ATAX, K20, tiny_space(), SIZES)
        else:
            out = engine.sweep(ATAX, K20, tiny_space(), SIZES)
        stats = engine.last_stats
    spans, instants = list(obs.tracer.spans), list(obs.tracer.instants)
    metrics = obs.metrics
    obs.disable()
    return out, stats, spans, instants, metrics


def span_identity(spans):
    """The jobs-invariant part of a trace (no timestamps, no pids)."""
    return sorted((s.span_id, s.parent_id, s.name) for s in spans)


def assert_byte_identical(out, serial):
    assert [json.dumps(vars(m)) for m in out] == [
        json.dumps(vars(m)) for m in serial
    ]


CHAOS_SPEC = chaos.ChaosSpec(seed=2, kill_rate=0.5, raise_rate=0.5)


@pytest.fixture(scope="module")
def clean_serial():
    return traced_sweep(jobs=1)


class TestSweepTraceDeterminism:
    def test_span_tree_identical_across_jobs(self, clean_serial):
        out1, _, spans1, _, _ = clean_serial
        out4, _, spans4, _, _ = traced_sweep(jobs=4)
        assert_byte_identical(out4, out1)
        assert span_identity(spans4) == span_identity(spans1)
        names = {s.name for s in spans1}
        assert {"sweep", "shard", "attempt", "measure"} <= names
        # and the parallel run really shipped spans from worker processes
        assert any(
            s.pid != os.getpid() and s.name == "measure" for s in spans4
        )

    def test_span_tree_identical_across_jobs_under_chaos(self, clean_serial):
        clean_out, _, clean_spans, _, _ = clean_serial
        out1, s1, spans1, _, _ = traced_sweep(jobs=1, spec=CHAOS_SPEC)
        out4, s4, spans4, _, _ = traced_sweep(jobs=4, spec=CHAOS_SPEC)
        assert_byte_identical(out1, clean_out)
        assert_byte_identical(out4, clean_out)
        assert s1.retries == s4.retries > 0
        assert span_identity(spans4) == span_identity(spans1)
        # chaos adds retry attempts on top of the clean tree
        assert len(spans1) > len(clean_spans)

    def test_measure_spans_cover_every_fresh_measurement(self, clean_serial):
        _, stats, spans, _, _ = clean_serial
        assert sum(s.name == "measure" for s in spans) == stats.measured
        shard_ids = {s.span_id for s in spans if s.name == "shard"}
        attempts = [s for s in spans if s.name == "attempt"]
        assert attempts and all(
            s.parent_id in shard_ids for s in attempts
        )

    def test_exported_artifacts_validate(self, clean_serial, tmp_path):
        _, _, spans, instants, metrics = clean_serial
        assert validate_trace(chrome_trace(spans, instants)) == []
        assert validate_metrics(metrics.snapshot()) == []
        tree = ascii_tree(spans, instants)
        assert "sweep (1)" in tree and "measure" in tree


class TestSweepMetricsReconciliation:
    def test_registry_reconciles_exactly_with_sweep_stats(self, tmp_path):
        obs.enable()
        with SweepEngine(jobs=1, cache=tmp_path / "cache") as engine:
            engine.sweep(ATAX, K20, tiny_space(), SIZES)
            first = engine.last_stats
            engine.sweep(ATAX, K20, tiny_space(), SIZES)
            second = engine.last_stats
        m = obs.metrics
        labels = {"kernel": ATAX.name, "gpu": K20.name}
        points = m.value("engine.points", **labels)
        hits = m.value("engine.cache_hits", **labels)
        measured = m.value("engine.measured", **labels)
        quarantined = m.value("engine.quarantined", **labels)
        assert points == hits + measured + quarantined
        assert points == first.total + second.total
        assert hits == first.hits + second.hits == second.total
        assert measured == first.measured + second.measured == first.total
        assert m.value("engine.runs", **labels) == 2
        snap = m.snapshot()
        (h,) = [r for r in snap["histograms"]
                if r["name"] == "engine.run_seconds"]
        assert h["count"] == 2

    def test_chaos_faults_land_in_instants_and_counters(self):
        spec = chaos.ChaosSpec(seed=2, raise_rate=0.9)
        _, stats, spans, instants, m = traced_sweep(jobs=1, spec=spec)
        assert stats.retries > 0
        names = {i.name for i in instants}
        assert "chaos.raise" in names and "fault.raised" in names
        faults = [i for i in instants if i.name == "fault.raised"]
        span_ids = {s.span_id for s in spans}
        # every supervisor fault instant hangs off a recorded attempt span
        assert all(f.parent_id in span_ids for f in faults)
        assert m.value("pool.faults", fate="raised") == len(faults)
        assert m.value("pool.retries") == stats.retries


# ---------------------------------------------------------------------------
# emulator profile metrics


class TestEmulatorMetrics:
    def test_launch_profile_feeds_registry_and_trace(self):
        bm = get_benchmark("atax")
        n = bm.smallest_size
        inputs = bm.make_inputs(n, rng_for("tests", "obs", "emu", n))
        mod = compile_module(bm.name, list(bm.specs), CompileOptions(gpu=K20))
        tc, bc = bm.emu_launch(n)
        obs.enable()
        run_benchmark_emulated(mod, inputs, tc=tc, bc=bc)
        m, t = obs.metrics, obs.tracer

        launches = [r for r in m.snapshot()["counters"]
                    if r["name"] == "emu.launches"]
        assert sum(r["value"] for r in launches) == len(mod)
        assert all(r["labels"]["kernel"] and r["labels"]["mode"]
                   for r in launches)
        ips = [r for r in m.snapshot()["gauges"]
               if r["name"] == "emu.issues_per_second"]
        assert ips and all(r["value"] > 0 for r in ips)
        widths = [r for r in m.snapshot()["histograms"]
                  if r["name"] == "emu.stack_width"]
        assert sum(r["count"] for r in widths) == len(mod)

        emu = [s for s in t.spans if s.name == "emulate"]
        launch = [s for s in t.spans if s.name == "launch"]
        assert len(emu) == 1 and len(launch) == len(mod)
        assert all(s.parent_id == emu[0].span_id for s in launch)
        assert all("issue_slots" in s.args and "mode" in s.args
                   for s in launch)

    def test_emulation_result_carries_profile(self):
        bm = get_benchmark("atax")
        n = bm.smallest_size
        inputs = bm.make_inputs(n, rng_for("tests", "obs", "prof", n))
        mod = compile_module(bm.name, list(bm.specs), CompileOptions(gpu=K20))
        tc, bc = bm.emu_launch(n)
        res, _ = emulate_kernel(next(iter(mod)), inputs, tc=tc, bc=bc)
        assert res.profile is not None
        assert res.profile.issue_slots > 0
        assert res.profile.mode and isinstance(res.profile.mode, str)
        assert res.profile.wall_seconds > 0


# ---------------------------------------------------------------------------
# runner integration + CLI


class TestRunnerObs:
    @pytest.fixture(autouse=True)
    def _reset_experiment_state(self):
        yield
        common.configure_sweeps()
        common.clear_sweep_cache()

    def test_traced_suite_run_produces_valid_artifacts(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert runner_main([
            "suite", "--kernel", "atax", "--arch", "kepler",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace", str(trace), "--metrics", str(metrics),
        ]) == 0
        err = capsys.readouterr().err
        # satellite: the lifetime summary prints without --progress
        assert "[engine]" in err and "measured" in err
        assert f"[obs] trace written to {trace}" in err
        assert f"[obs] metrics written to {metrics}" in err

        tdoc = json.loads(trace.read_text())
        mdoc = json.loads(metrics.read_text())
        assert validate_trace(tdoc) == []
        assert validate_metrics(mdoc) == []
        cats = {ev["cat"] for ev in tdoc["traceEvents"] if ev["ph"] == "X"}
        assert {"sweep", "shard", "attempt", "measure",
                "tune", "round", "emulate", "launch"} <= cats
        gauges = {r["name"] for r in mdoc["gauges"]}
        assert "engine.lifetime_measured" in gauges
        assert "cache.hits" in gauges

        # the CLI agrees, end to end
        assert cli_main([
            "validate", "--trace", str(trace), "--metrics", str(metrics),
            "--expect-spans", "sweep,shard,attempt,measure",
        ]) == 0
        assert cli_main(["tree", str(trace)]) == 0
        capsys.readouterr()

    def test_cli_flags_missing_expectations(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        t = Tracer()
        with t.span("sweep", key="s"):
            pass
        trace.write_text(json.dumps(chrome_trace(t.spans, t.instants)))
        assert cli_main(["validate", "--trace", str(trace)]) == 0
        assert cli_main([
            "validate", "--trace", str(trace), "--expect-spans", "shard",
        ]) == 1
        assert cli_main([
            "validate", "--trace", str(trace), "--expect-fault",
        ]) == 1
        with pytest.raises(SystemExit):
            cli_main(["validate", "--trace", str(tmp_path / "absent.json")])
        capsys.readouterr()
