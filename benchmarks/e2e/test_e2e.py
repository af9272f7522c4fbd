"""Self-test of the end-to-end benchmark harness, at tiny sizes."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

import compare
import layers
import run
import speed
import workloads
from stats import percentile

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

_TINY = """
import json, sys
from pathlib import Path
import workloads
results = []
for name, trace in json.loads(sys.argv[1]):
    result, _ = workloads.execute(
        name, seed=3, seconds=0, workdir=Path(sys.argv[2]) / f"{name}-{trace}",
        trace=trace, tiny=True, setups=1)
    results.append(result)
print(json.dumps(results))
"""


def _tiny_runs(tmp_path, specs) -> list:
    # a child process under the hash seed run.py pins for every workload
    env = dict(workloads.child_env(), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", _TINY, json.dumps(specs), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == layers.LAYER_METRICS
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS


def test_tiny_workloads_emit_declared_metrics(tmp_path):
    specs = [[name, trace] for name in run.WORKLOADS for trace in (0, 1)]
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for (name, trace), result in zip(specs, _tiny_runs(tmp_path, specs)):
        assert result["correct"], (name, trace, result["checks"])
        assert result["failed"] == 0
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        assert units == (per_layer if trace else end_to_end), (name, trace)
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        elif name == "sweep-warm":
            # a warm pass never reaches the compiler or the models
            for layer in ("codegen.compile", "sim.counting", "sim.timing"):
                assert result["metrics"][f"{layer}.calls"]["value"] == 0
        elif name == "service-mix":
            # the server's layers reach the harness through its stats file
            assert result["metrics"]["service.fleet.jobs"]["value"] > 0
            assert result["metrics"]["client.requests"]["value"] > 0


def test_inputs_follow_the_seed():
    for name, wl in workloads.WORKLOADS.items():
        def inputs(seed):
            plan = wl.plan(seed)
            return json.dumps([plan.inputs, plan.ops(run.DEFAULT_SECONDS)],
                              sort_keys=True)

        assert inputs(5) == inputs(5), name
        assert inputs(5) != inputs(6), name


def test_uninstall_restores_every_original():
    assert layers.broken_probes() == []
    targets = [probe.resolve() for probe in layers.ALL_PROBES]
    originals = [vars(owner)[attr] for owner, attr in targets]
    tracer = layers.Tracer()
    tracer.install(layers.ALL_PROBES)
    try:
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr] is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner)[attr] is original, attr


def test_self_time_excludes_children():
    tracer = layers.Tracer()
    with tracer.span("outer", "outer"):
        time.sleep(0.02)
        with tracer.span("inner", "inner"):
            time.sleep(0.03)
    funcs = tracer.summary()["funcs"]
    outer, inner = funcs["harness:outer"], funcs["harness:inner"]
    assert outer["dur_s"] >= inner["dur_s"] + 0.02
    assert outer["self_s"] == pytest.approx(outer["dur_s"] - inner["dur_s"])
    assert inner["self_s"] == inner["dur_s"]


def test_busy_time_counts_overlap_once_and_skips_gaps():
    def op(t0, t1):
        return workloads.OpResult(t0, t1, 1, "d")

    ops = [op(0.0, 1.0), op(0.5, 2.0), op(3.0, 4.0)]
    assert workloads.busy_seconds(ops) == pytest.approx(3.0)
    assert workloads.busy_seconds(ops, lambda t0, t1: 2 * (t1 - t0)) == \
        pytest.approx(6.0)


def test_scaled_time_uses_the_samples_around_an_interval():
    meter = speed.SpeedMeter()
    # a fast stretch, then a stretch at half the reference speed
    meter._times = [0.0, 1.0, 2.0, 3.0, 4.0]
    meter._ratios = [1.0, 1.0, 0.5, 0.5, 0.5]
    assert meter.scaled(3.2, 3.4) == pytest.approx(0.1)
    # samples 1.0 and 2.0 lie inside; 0.0 and 3.0 are the neighbours
    assert meter.factor(0.5, 2.5) == pytest.approx(0.75)


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    assert percentile(range(100), 90) == pytest.approx(89.1)
    assert percentile(range(20), 50) == pytest.approx(9.5)


def _runs(values, digest="d", seed=1):
    return [{"seed": seed, "outputs_digest": digest, "started_unix": i,
             "metrics": {"m": {"value": v}}}
            for i, v in enumerate(values)]


@pytest.mark.parametrize("parent, change, better, expected", [
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [100] * 10,
     "lower", "unchanged"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120] * 10,
     "lower", "regressed"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [80] * 10,
     "lower", "improved"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [80] * 10,
     "higher", "regressed"),
    # fewer than ten pairs cannot claim a gain
    ([100, 101, 99, 100, 102], [80] * 5, "lower", "unchanged"),
    # a spread wider than the bound that the runs do not separate
    ([70, 130, 80, 120, 100, 90, 110, 75, 125, 100], [105] * 10,
     "lower", "unresolved"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1)["verdict"] == \
        expected


def test_compare_fails_on_digest_mismatch():
    spec = {"end_to_end": [{"name": "m", "unit": "ms", "better": "lower",
                            "bound": 0.1}]}
    parent = {"w": _runs([100] * 10)}
    same = {"w": _runs([100] * 10)}
    other = {"w": _runs([100] * 10, digest="e")}
    assert compare.digest_mismatches(parent, same) == []
    assert len(compare.digest_mismatches(parent, other)) == 1
    rows = compare.compare(parent, same, spec)
    assert [(r["metric"], r["workload"], r["verdict"]) for r in rows] == \
        [("m", "w", "unchanged")]
