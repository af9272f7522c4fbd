"""The CI benchmark-regression gate (repro.util.benchcheck)."""

import json

import pytest

from repro.util.benchcheck import find_regressions, load_medians, main


def _bench_json(path, medians):
    path.write_text(json.dumps({
        "benchmarks": [
            {"fullname": name, "stats": {"median": med}}
            for name, med in medians.items()
        ]
    }))
    return path


@pytest.fixture
def files(tmp_path):
    def make(name, medians):
        return _bench_json(tmp_path / name, medians)

    return make


class TestFindRegressions:
    def test_flags_watched_slowdown_beyond_threshold(self):
        cur = {"b/test_bench_emulator.py::t": 1.4, "b/other.py::t": 9.0}
        base = {"b/test_bench_emulator.py::t": 1.0, "b/other.py::t": 1.0}
        regs = find_regressions(cur, base, threshold=0.30)
        assert [r[0] for r in regs] == ["b/test_bench_emulator.py::t"]
        assert regs[0][3] == pytest.approx(1.4)

    def test_within_threshold_passes(self):
        cur = {"x emulator": 1.29}
        assert find_regressions(cur, {"x emulator": 1.0}) == []

    def test_unwatched_names_ignored(self):
        cur = {"b/test_bench_tables.py::t": 99.0}
        base = {"b/test_bench_tables.py::t": 1.0}
        assert find_regressions(cur, base) == []
        assert find_regressions(cur, base, patterns=("tables",)) != []

    def test_fig6_search_watched_by_default(self):
        name = ("benchmarks/test_bench_fig6_search.py::"
                "test_bench_fig6_search_improvement")
        regs = find_regressions({name: 47.0}, {name: 2.8})
        assert [r[0] for r in regs] == [name]

    def test_compile_watched_by_default(self):
        name = ("benchmarks/test_bench_compile.py::"
                "test_bench_compile_tune_mix_modules")
        regs = find_regressions({name: 1.4}, {name: 1.0})
        assert [r[0] for r in regs] == [name]
        assert find_regressions({name: 1.2}, {name: 1.0}) == []

    def test_measure_watched_by_default(self):
        name = ("benchmarks/test_bench_measure.py::"
                "test_bench_measure_warm_points")
        regs = find_regressions({name: 1.4}, {name: 1.0})
        assert [r[0] for r in regs] == [name]
        assert find_regressions({name: 1.2}, {name: 1.0}) == []

    def test_search_batch_watched_by_default(self):
        name = ("benchmarks/test_bench_search_batch.py::"
                "test_bench_genetic_parallel_beats_serial")
        regs = find_regressions({name: 1.4}, {name: 1.0})
        assert [r[0] for r in regs] == [name]
        assert find_regressions({name: 1.2}, {name: 1.0}) == []

    def test_new_benchmark_is_not_a_regression(self):
        assert find_regressions({"new sweep": 5.0}, {}) == []

    def test_worst_first(self):
        cur = {"a sweep": 2.0, "b sweep": 3.0}
        base = {"a sweep": 1.0, "b sweep": 1.0}
        regs = find_regressions(cur, base)
        assert [r[0] for r in regs] == ["b sweep", "a sweep"]


class TestCli:
    def test_missing_baseline_is_ok(self, files, tmp_path, capsys):
        cur = files("cur.json", {"a emulator": 1.0})
        rc = main([str(cur), str(tmp_path / "absent.json")])
        assert rc == 0
        assert "no baseline" in capsys.readouterr().out

    def test_regression_fails(self, files, capsys):
        cur = files("cur.json", {"a emulator": 2.0})
        base = files("base.json", {"a emulator": 1.0})
        assert main([str(cur), str(base)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_clean_run_passes(self, files, capsys):
        cur = files("cur.json", {"a emulator": 1.0, "b sweep": 1.0})
        base = files("base.json", {"a emulator": 1.0, "b sweep": 0.9})
        assert main([str(cur), str(base)]) == 0
        assert "within 30%" in capsys.readouterr().out

    def test_custom_threshold_and_pattern(self, files):
        cur = files("cur.json", {"a tables": 1.2})
        base = files("base.json", {"a tables": 1.0})
        assert main([str(cur), str(base), "--pattern", "tables",
                     "--threshold", "0.10"]) == 1

    def test_load_medians(self, files):
        path = files("cur.json", {"a": 0.25})
        assert load_medians(path) == {"a": 0.25}
