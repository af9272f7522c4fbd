"""Tests for the extension modules: replay/dial (paper Sec. VII), the
STATuner-style classifier, dynamic analysis (IC/BF/MD), the CUDA-style
occupancy API, and the shared-memory-tiled kernel."""

import json

import numpy as np
import pytest

from repro.arch import K20, M2050
from repro.autotune.replay import (
    Dial,
    SessionRecord,
    SessionRecorder,
    replay_with_empirical_testing,
    tune_with_dial,
)
from repro.autotune.space import Parameter, ParameterSpace
from repro.codegen.compiler import CompileOptions, compile_module
from repro.core.classifier import (
    BLOCK_SIZE_CLASSES,
    BlockSizeClassifier,
    FEATURE_NAMES,
    TrainingSet,
    extract_features,
)
from repro.core.dynamic import profile_benchmark
from repro.core.occupancy_api import (
    LaunchSuggestion,
    max_active_blocks_per_multiprocessor,
    max_potential_block_size,
    suggest_launch_for_kernel,
)
from repro.kernels import get_benchmark
from repro.sim.emulator import run_benchmark_emulated
from repro.util.rng import rng_for


def _tiny_space():
    return ParameterSpace([
        Parameter("TC", tuple(range(32, 1025, 32))),
        Parameter("BC", (48,)),
        Parameter("UIF", (1,)),
        Parameter("PL", (16,)),
        Parameter("CFLAGS", ("",)),
    ])


class TestReplay:
    def test_record_roundtrips_json(self):
        bm = get_benchmark("atax")
        rec = SessionRecorder(bm, K20, space=_tiny_space()).run(
            size=64, use_rule=True
        )
        text = rec.to_json()
        back = SessionRecord.from_json(text)
        assert back.best_config == rec.best_config
        assert back.searched_threads == rec.searched_threads
        assert len(back.variants) == len(rec.variants)
        json.loads(text)  # valid JSON

    def test_record_contents(self):
        bm = get_benchmark("atax")
        rec = SessionRecorder(bm, K20, space=_tiny_space()).run(size=64)
        assert rec.suggested_threads == [128, 256, 512, 1024]
        assert set(rec.searched_threads) == set(rec.suggested_threads)
        assert rec.intensity == pytest.approx(3.5, abs=0.3)

    def test_record_compiles_only_the_measured_module(
            self, monkeypatch, cold_module_cache):
        """The record's analysis snapshot is the one the static search
        pruned with, read from the module the session measures: the
        session compiles that module once and nothing else."""
        from repro.autotune import measure
        from repro.core import analyzer

        def refuse(*args, **kwargs):
            raise AssertionError("compiled through the static analyzer")

        compiles = []
        real = measure.compile_module

        def counting(name, specs, options):
            compiles.append((name, options.unroll_factor, options.fast_math))
            return real(name, specs, options)

        monkeypatch.setattr(analyzer, "compile_module", refuse)
        monkeypatch.setattr(measure, "compile_module", counting)
        rec = SessionRecorder(get_benchmark("atax"), K20,
                              space=_tiny_space()).run(size=64, use_rule=True)
        assert compiles == [("atax", 1, False)]
        assert set(rec.searched_threads) == set(rec.rule_threads)

    def test_replay_validates_pruning(self):
        bm = get_benchmark("atax")
        space = _tiny_space()
        rec = SessionRecorder(bm, K20, space=space).run(size=256)
        rep = replay_with_empirical_testing(rec, bm, K20)
        assert rep.pruned_evaluations == len(space) - len(rec.variants)
        assert rep.global_best <= rep.record_best
        assert rep.regret >= 0.0
        assert "replay" in rep.summary()

    def test_replay_fails_on_a_quarantined_point(self):
        """A pruned point that keeps failing fails the replay with the
        engine's BatchError, not on the missing measurement."""
        from repro.engine import BatchError, chaos

        bm = get_benchmark("atax")
        space = ParameterSpace([
            Parameter("TC", (32, 64, 128, 256)),
            Parameter("BC", (48,)),
        ])
        rec = SessionRecorder(bm, K20, space=space).run(size=256)
        assert rec.searched_threads == [128, 256]
        spec = chaos.ChaosSpec(seed=1, raise_rate=1.0, attempts=-1,
                               only_indices=(0,))
        with chaos.injected(spec), pytest.raises(BatchError) as e:
            replay_with_empirical_testing(rec, bm, K20)
        assert [f.indices for f in e.value.failures] == [(0,)]

    def test_dial_endpoints(self):
        space = _tiny_space()
        t_star = (128, 256, 512, 1024)
        assert Dial(0.0).thread_counts(space, t_star) == tuple(sorted(t_star))
        full = Dial(1.0).thread_counts(space, t_star)
        assert len(full) == 32
        mid = Dial(0.5).thread_counts(space, t_star)
        assert len(t_star) < len(mid) < 32

    def test_dial_validation(self):
        with pytest.raises(ValueError):
            Dial(1.5)

    def test_tune_with_dial_monotone_coverage(self):
        bm = get_benchmark("atax")
        space = _tiny_space()
        out0 = tune_with_dial(bm, K20, 64, Dial(0.0), space=space)
        out1 = tune_with_dial(bm, K20, 64, Dial(1.0), space=space)
        assert out1.search.evaluations > out0.search.evaluations
        # more empirical testing can only improve (or match) the result
        assert out1.best_seconds <= out0.best_seconds + 1e-12


class TestClassifier:
    def test_feature_vector_shape(self, compiled_benchmarks):
        f = extract_features(compiled_benchmarks["atax"], {"N": 256})
        assert f.shape == (len(FEATURE_NAMES),)
        assert np.isfinite(f).all()
        assert (f >= 0).all() and (f <= 1.5).all()

    def test_features_distinguish_kernels(self, compiled_benchmarks):
        env_a = {"N": 256}
        env_e = {"N": 32, "NN": 1024, "NNN": 32768}
        fa = extract_features(compiled_benchmarks["atax"], env_a)
        fe = extract_features(compiled_benchmarks["ex14fj"], env_e)
        assert not np.allclose(fa, fe)

    def test_training_converges_on_separable_data(self):
        rng = np.random.default_rng(0)
        n, d = 200, len(FEATURE_NAMES)
        x = rng.random((n, d))
        y = (x[:, 0] > 0.5).astype(int) * 4  # classes 0 and 4, separable
        data = TrainingSet(features=x, labels=y, tags=["synth"] * n)
        clf = BlockSizeClassifier()
        losses = clf.fit(data, epochs=300)
        assert losses[-1] < losses[0]
        preds = [
            clf.predict(x[i]) for i in range(20)
        ]
        expected = [BLOCK_SIZE_CLASSES[y[i]] for i in range(20)]
        acc = np.mean([p == e for p, e in zip(preds, expected)])
        assert acc >= 0.9

    def test_predict_requires_training(self):
        with pytest.raises(RuntimeError):
            BlockSizeClassifier().predict(np.zeros(len(FEATURE_NAMES)))

    def test_proba_sums_to_one(self):
        clf = BlockSizeClassifier()
        clf.trained = True
        p = clf.predict_proba(np.zeros(len(FEATURE_NAMES)))
        assert sum(p.values()) == pytest.approx(1.0)
        assert set(p) == set(BLOCK_SIZE_CLASSES)


class TestDynamicAnalysis:
    def test_profile_ex14fj(self):
        bm = get_benchmark("ex14fj")
        inputs = bm.make_inputs(8, rng_for("dyn"))
        mod = compile_module("ex14fj", list(bm.specs),
                             CompileOptions(gpu=K20))
        rep = profile_benchmark(mod, inputs, tc=64, bc=2)
        assert rep.total_instructions > 0
        assert rep.divergent_branches > 0
        assert 0 < rep.simd_efficiency < 1
        assert rep.memory_distance.total > 0
        assert "Dynamic analysis" in rep.summary()

    def test_stencil_locality_beats_strided(self):
        """ex14FJ's stencil reuses lines heavily; atax's row walk at tiny N
        also reuses, but the locality score must be finite and ordered."""
        bm_e = get_benchmark("ex14fj")
        inp_e = bm_e.make_inputs(8, rng_for("dyn2"))
        mod_e = compile_module("e", list(bm_e.specs),
                               CompileOptions(gpu=K20))
        rep_e = profile_benchmark(mod_e, inp_e, tc=64, bc=2)
        assert rep_e.memory_distance.locality_score() > 0.5


class TestOccupancyAPI:
    def test_max_active_blocks_matches_eq1(self):
        from repro.core.occupancy import occupancy

        assert max_active_blocks_per_multiprocessor(
            K20, 32, 256
        ) == occupancy(K20, 256, 32).active_blocks

    def test_max_potential_block_size_kepler(self):
        s = max_potential_block_size(K20, regs_per_thread=24)
        assert isinstance(s, LaunchSuggestion)
        assert s.occupancy == 1.0
        assert s.block_size == 1024  # largest max-occupancy block
        assert s.min_grid_size == 2 * K20.multiprocessors

    def test_dynamic_smem_callback(self):
        # smem grows with block size: the largest blocks become unlaunchable
        s = max_potential_block_size(
            M2050, regs_per_thread=20,
            dynamic_smem_of_block=lambda b: b * 64,
        )
        assert s.block_size < 1024
        assert s.occupancy > 0.0

    def test_kernel_form(self, compiled_benchmarks):
        s = suggest_launch_for_kernel(compiled_benchmarks["atax"].kernels[0])
        assert s.block_size in range(32, 1025, 32)
        assert s.occupancy > 0.9


class TestSmemTiledKernel:
    def test_correct_and_uses_smem(self):
        bm = get_benchmark("matvec_smem")
        inputs = bm.make_inputs(256, rng_for("smem"))
        mod = compile_module("matvec_smem", list(bm.specs),
                             CompileOptions(gpu=K20))
        assert mod.static_smem_bytes == 128 * 4
        outs, res = run_benchmark_emulated(mod, inputs, tc=128, bc=2)
        np.testing.assert_allclose(outs["y"], bm.reference(inputs)["y"],
                                   rtol=3e-3, atol=3e-4)

    def test_smem_constrains_occupancy_suggestion(self):
        from repro.core.suggest import suggest_for_module

        bm = get_benchmark("matvec_smem")
        mod = compile_module("matvec_smem", list(bm.specs),
                             CompileOptions(gpu=K20))
        s = suggest_for_module(mod)
        # headroom is reduced by the static tile
        assert s.smem_headroom <= 3072 - 0  # <= the unconstrained value
        assert s.smem_headroom >= 0

    def test_size_validation(self):
        bm = get_benchmark("matvec_smem")
        with pytest.raises(ValueError, match="N % 128"):
            bm.make_inputs(100, rng_for("x"))
