"""Smoke + structure tests for every experiment module.

Each experiment must run on a trimmed configuration and render non-empty
text mentioning its subject; the cheap ones also assert the key numbers
they reproduce.
"""

import pytest

from repro.experiments import (
    fig1_divergence,
    fig3_spec,
    fig6_search_improvement,
    fig7_occupancy_calc,
    table1_gpus,
    table2_throughput,
    table6_mix_errors,
    table7_suggestions,
)
from repro.experiments.runner import run_experiment


class TestStaticExperiments:
    def test_table1(self):
        res = table1_gpus.run()
        assert res["gpus"] == ["M2050", "K20", "M40", "P100"]
        text = table1_gpus.render(res)
        assert "Multiprocessors" in text and "1024" in text

    def test_table2(self):
        res = table2_throughput.run()
        assert res["sms"] == [20, 35, 52, 60]
        assert "LogSinCos" in table2_throughput.render(res)

    def test_fig3(self):
        res = fig3_spec.run()
        assert res["size"] == 5120
        assert "PerfTuning" in fig3_spec.render(res)

    def test_table7(self):
        res = table7_suggestions.run(archs=["kepler"], kernels=["atax"])
        row = res["rows"][0]
        assert row["threads"] == [128, 256, 512, 1024]
        assert row["occ"] == 1.0
        assert "T*" in table7_suggestions.render(res)

    def test_fig7(self):
        res = fig7_occupancy_calc.run(archs=["fermi"])
        panel = res["panels"]["M2050"]
        assert max(panel["current"]) == 1.0
        assert "occupancy" in fig7_occupancy_calc.render(res)


class TestDynamicExperiments:
    def test_fig1_divergence_monotone(self):
        res = fig1_divergence.run(n=256, tc=64, bc=2,
                                  path_counts=(1, 2, 4))
        effs = [r["simd_efficiency"] for r in res["rows"]]
        assert effs[0] == pytest.approx(1.0)
        assert effs[0] > effs[1] > effs[2]
        inflations = [r["issue_inflation"] for r in res["rows"]]
        assert inflations == sorted(inflations)
        assert "divergence" in fig1_divergence.render(res)

    def test_table6_structure(self):
        res = table6_mix_errors.run(archs=["kepler"], kernels=["atax"])
        row = res["rows"][0]
        assert row["flops"] >= 0 and row["mem"] >= 0
        assert row["intensity"] == pytest.approx(3.5, abs=0.3)
        assert "static" in table6_mix_errors.render(res)

    def test_fig6_improvements(self):
        res = fig6_search_improvement.run(
            archs=["kepler"], kernels=["atax"], verify_quality=False
        )
        row = res["rows"][0]
        assert row["static_improvement"] == pytest.approx(0.875)
        assert row["rb_improvement"] == pytest.approx(0.9375)
        # the black-box baselines ride along at the static budget
        for name in ("random", "annealing", "genetic", "simplex"):
            assert 0 < row[f"{name}_evals"] <= row["static_evals"]
        text = fig6_search_improvement.render(res)
        assert "improvement" in text.lower()
        assert "annealing" in text


class TestRunner:
    def test_run_experiment_dispatch(self):
        text = run_experiment("table2")
        assert "SM35" in text

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_kwarg_filtering(self):
        # table1 accepts no kwargs; passing arch must not break it
        text = run_experiment("table1", archs=["kepler"], full=True)
        assert "M2050" in text


class TestSweepMemo:
    def test_clear_all_empties_the_sweep_memo(self, monkeypatch, request):
        """The pooled sweeps are a registered process memo, so the one
        switch that empties the process memos empties them too."""
        from repro.arch import K20
        from repro.autotune.space import Parameter, ParameterSpace
        from repro.experiments import common
        from repro.util.memo import REGISTRY, clear_all

        space = ParameterSpace([
            Parameter("TC", (64, 128)),
            Parameter("BC", (48,)),
        ])
        monkeypatch.setattr(common, "space_for", lambda full: space)
        request.addfinalizer(clear_all)  # leave no sweep of this space
        first = common.exhaustive_sweep("atax", K20)
        assert common.exhaustive_sweep("atax", K20) is first
        assert any(memo is common._SWEEP_CACHE for memo in REGISTRY)
        assert common._SWEEP_CACHE.limit >= 4 * 4 * 2  # a runner pass
        clear_all()
        assert not common._SWEEP_CACHE
        again = common.exhaustive_sweep("atax", K20)
        assert again is not first
        assert again.measurements == first.measurements
