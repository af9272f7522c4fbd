"""The workload-corpus subsystem: tags, selection, per-benchmark spaces,
registration-driven correctness, and the ``suite`` experiment.

The corpus-correctness class is parametrized over the *registry*, so a
newly registered benchmark is validated against its NumPy reference by
full SIMT emulation automatically -- no test edit required.
"""

import numpy as np
import pytest

from repro.arch import K20
from repro.autotune.tuner import Autotuner
from repro.codegen import dsl
from repro.codegen.compiler import CompileOptions, compile_module
from repro.kernels import BENCHMARKS, get_benchmark, list_benchmarks
from repro.kernels.base import Benchmark, TAGS
from repro.sim.emulator import run_benchmark_emulated
from repro.suite import corpus_members, corpus_sizes, corpus_space
from repro.util.rng import rng_for

EXPECTED_SUBSETS = {
    "memory-bound": {"atax", "bicg", "matvec2d", "matvec_smem", "mvt",
                     "gesummv", "jacobi2d", "dot", "gemver",
                     "spmv_csr", "histogram", "scan", "compact"},
    "compute-bound": {"ex14fj", "gemm"},
    "stencil": {"ex14fj", "jacobi2d"},
    "reduction": {"dot", "histogram"},
    "multi-pass": {"atax", "bicg", "mvt", "gemver"},
    "irregular": {"spmv_csr", "histogram", "scan", "compact"},
}


class TestTags:
    def test_corpus_has_at_least_ten_members(self):
        assert len(BENCHMARKS) >= 10

    def test_every_member_is_tagged(self):
        for bm in BENCHMARKS.values():
            assert bm.tags, f"{bm.name} has no tags"
            assert set(bm.tags) <= TAGS

    @pytest.mark.parametrize("tag", sorted(TAGS))
    def test_tag_subsets(self, tag):
        names = {b.name for b in list_benchmarks(tag=tag)}
        assert names == EXPECTED_SUBSETS[tag]

    def test_list_all_sorted(self):
        names = [b.name for b in list_benchmarks()]
        assert names == sorted(BENCHMARKS)

    def test_unknown_tag(self):
        with pytest.raises(KeyError, match="unknown tag"):
            list_benchmarks(tag="gpu-bound")

    def test_unknown_tag_rejected_at_registration(self):
        atax = get_benchmark("atax")
        with pytest.raises(ValueError, match="unknown tags"):
            Benchmark(
                name="bad", description="", specs=atax.specs,
                make_inputs=atax.make_inputs, reference=atax.reference,
                sizes=atax.sizes, param_env=atax.param_env,
                output_names=atax.output_names, tags=("turbo",),
            )

    def test_cooperative_member_requires_emulation_launch(self):
        """A barrier/smem kernel registered without an emulation-safe
        launch must be rejected up front -- the default launch would
        break its cooperative constraints and every emulator-backed
        consumer (suite ground truth, corpus validation) downstream."""
        from repro.kernels.base import register

        dot_bm = get_benchmark("dot")
        bad = Benchmark(
            name="dot_unlaunchable", description="", specs=dot_bm.specs,
            make_inputs=dot_bm.make_inputs, reference=dot_bm.reference,
            sizes=dot_bm.sizes, param_env=dot_bm.param_env,
            output_names=dot_bm.output_names, tags=("reduction",),
        )
        with pytest.raises(ValueError, match="emulation_launch"):
            register(bad)
        assert "dot_unlaunchable" not in BENCHMARKS


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
class TestCorpusCorrectness:
    """Every registered benchmark, emulated at its smallest size under
    its own declared launch, must match its NumPy reference."""

    def test_emulation_matches_reference(self, name):
        bm = get_benchmark(name)
        n = bm.smallest_size
        inputs = bm.make_inputs(n, rng_for("tests", "suite", name, n))
        ref = bm.reference(inputs)
        mod = compile_module(name, list(bm.specs), CompileOptions(gpu=K20))
        tc, bc = bm.emu_launch(n)
        outs, res = run_benchmark_emulated(mod, inputs, tc=tc, bc=bc)
        for out in bm.output_names:
            assert ref[out].shape == inputs[out].shape
            np.testing.assert_allclose(
                outs[out], ref[out], rtol=2e-3, atol=1e-3,
                err_msg=f"{name}:{out}",
            )
        assert res.total_thread_instructions > 0


class TestDivergenceJoin:
    """Regression for the reconvergence fix the reduction kernels
    exposed: in a divergent if *without* an else arm, the not-taken
    lanes must wait at the join block, not execute it early -- otherwise
    join-side atomics run twice for divergent warps."""

    def _kernel(self):
        N = dsl.sparam("N")
        x, y, z, cnt = dsl.farrays("x", "y", "z", "cnt")
        i = dsl.ivar("i")
        # the then-arm must exceed the if-conversion limit so the
        # lowering emits a real branch rather than predication
        return dsl.kernel(
            "onearm",
            params=[N, x, y, z, cnt],
            body=[
                dsl.pfor(i, N, [
                    dsl.when((i % 4).lt(2), [
                        y.store(i, x[i] * x[i] + x[i] + 1.0),
                        z.store(i, x[i] * 2.0 - 3.0),
                    ]),
                    cnt.atomic_add(0, dsl.f32(1.0)),
                ]),
            ],
        )

    def test_join_block_executes_once(self):
        n = 128
        spec = self._kernel()
        mod = compile_module("onearm", [spec], CompileOptions(gpu=K20))
        xv = rng_for("tests", "onearm").standard_normal(n).astype(np.float32)
        inputs = {"N": n, "x": xv, "y": np.zeros(n, np.float32),
                  "z": np.zeros(n, np.float32),
                  "cnt": np.zeros(1, np.float32)}
        outs, res = run_benchmark_emulated(mod, inputs, tc=32, bc=2)
        taken = np.arange(n) % 4 < 2
        x64 = xv.astype(np.float64)
        np.testing.assert_allclose(
            outs["y"], np.where(taken, x64 * x64 + x64 + 1.0, 0.0),
            rtol=1e-5,
        )
        np.testing.assert_allclose(
            outs["z"], np.where(taken, x64 * 2.0 - 3.0, 0.0), rtol=1e-5,
        )
        assert res.divergent_branches > 0
        # the post-join atomic must fire exactly once per thread
        assert outs["cnt"][0] == n


class TestPfor2d:
    def test_only_used_indices_are_assigned(self):
        from repro.codegen.ast_nodes import Assign

        N = dsl.sparam("N")
        A, B = dsl.farrays("A", "B")
        i, j = dsl.ivars("i", "j")
        loop = dsl.pfor2d(i, j, N, N, [B.store(j, A[j])])
        assigns = [s.var for s in loop.body if isinstance(s, Assign)]
        assert assigns == ["j"]

    def test_flat_only_body_has_no_index_assigns(self):
        from repro.codegen.ast_nodes import Assign

        # jacobi2d indexes by the flat counter alone: no dead i/j ops
        bm = get_benchmark("jacobi2d")
        loop = bm.specs[0].body[0]
        assert not [s for s in loop.body if isinstance(s, Assign)]


class TestCorpusSelection:
    def test_all_members(self):
        assert [b.name for b in corpus_members()] == sorted(BENCHMARKS)

    def test_tag_union(self):
        names = {b.name for b in corpus_members(tags=["stencil",
                                                      "reduction"])}
        assert names == {"ex14fj", "jacobi2d", "dot", "histogram"}

    def test_tag_and_kernel_intersection(self):
        members = corpus_members(tags=["multi-pass"],
                                 kernels=["mvt", "atax", "gemm"])
        assert [b.name for b in members] == ["atax", "mvt"]

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            corpus_members(kernels=["nope"])


class TestCorpusSpaces:
    def test_reduced_space_keeps_tc_axis(self):
        bm = get_benchmark("atax")
        space = corpus_space(bm)
        assert len(space.by_name["TC"]) == 32
        assert space.by_name["PL"].values == (16,)
        assert len(space) == 256

    def test_full_space_is_declared_space(self):
        bm = get_benchmark("atax")
        assert len(corpus_space(bm, full=True)) == 5120

    def test_dot_declares_tile_multiples(self):
        bm = get_benchmark("dot")
        tcs = bm.default_space().by_name["TC"].values
        assert all(tc % 128 == 0 for tc in tcs)
        assert bm.default_space().by_name["UIF"].values == (1,)

    def test_autotuner_picks_up_declared_space(self):
        tuner = Autotuner(get_benchmark("dot"), K20)
        assert all(tc % 128 == 0 for tc in tuner.space.by_name["TC"].values)
        # undeclared members keep the Table III default
        assert len(Autotuner(get_benchmark("atax"), K20).space) == 5120

    def test_corpus_sizes(self):
        bm = get_benchmark("atax")
        assert corpus_sizes(bm) == (32, 512)
        assert corpus_sizes(bm, full=True) == bm.sizes


class TestEq6Profile:
    def test_measurement_without_compile_axes(self):
        from repro.autotune.measure import Measurer
        from repro.suite.evaluate import eq6_profile

        bm = get_benchmark("atax")
        m = Measurer(bm, K20).measure({"TC": 64, "BC": 48}, 64)
        predicted, observed = eq6_profile(bm, K20, [m])
        assert observed == [m.seconds]
        assert len(predicted) == 1 and predicted[0] > 0


class TestSuiteExperiment:
    def test_run_structure(self):
        from repro.experiments import suite_eval

        res = suite_eval.run(archs=["kepler"], kernels=["dot", "gemm"])
        assert res["members"] == ["dot", "gemm"]
        assert len(res["accuracy"]) == 2 and len(res["quality"]) == 2
        for row in res["accuracy"]:
            assert row["time_mae"] >= 0 and row["variants"] > 0
        for row in res["quality"]:
            assert row["static_quality"] >= 1.0 - 1e-9
            assert 0 <= row["static_reduction"] < 1
        text = suite_eval.render(res)
        assert "model accuracy" in text and "autotuning quality" in text
        assert "reduction" in text  # the tag listing

    def test_tag_filter(self):
        from repro.experiments import suite_eval

        res = suite_eval.run(archs=["kepler"], tags=["reduction"])
        assert res["members"] == ["dot", "histogram"]

    def test_empty_corpus_raises(self):
        from repro.experiments import suite_eval

        with pytest.raises(ValueError, match="no corpus members"):
            suite_eval.run(archs=["kepler"], tags=["reduction"],
                           kernels=["atax"])

    def test_runner_dispatch(self):
        from repro.experiments.runner import run_experiment

        text = run_experiment("suite", archs=["kepler"], kernels=["atax"],
                              tags=None)
        assert "atax" in text


class TestRunnerValidation:
    @pytest.mark.parametrize("argv,fragment", [
        (["--kernel", "nope", "fig4"], "unknown kernel"),
        (["--arch", "volta", "fig4"], "unknown architecture"),
        (["--tag", "fast", "suite"], "unknown tag"),
        (["--tag", "compute-bound", "--kernel", "dot", "suite"],
         "matches both"),
    ])
    def test_bad_filter_values_fail_fast(self, argv, fragment, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert fragment in capsys.readouterr().err
