"""Tests for the Orio-like autotuning framework: space, spec parsing,
measurement, ranking, and every search strategy -- including the batch
ask/tell protocol, budget accounting, infeasible-space behaviour, and
byte-identical serial/parallel evaluation."""

import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import ALL_GPUS, K20
from repro.autotune import (
    Autotuner,
    ExhaustiveSearch,
    GeneticSearch,
    Measurer,
    NelderMeadSearch,
    RandomSearch,
    SimulatedAnnealingSearch,
    StaticSearch,
    default_tuning_spec,
    get_search,
    parse_perf_tuning,
    rank_split,
)
from repro.autotune.search import config_key
from repro.autotune.space import Parameter, ParameterSpace
from repro.autotune.spec import DEFAULT_SPEC_TEXT, SpecError
from repro.kernels import BENCHMARKS, get_benchmark
from tests.conftest import reference_tune

#: worker count for the parallel-equivalence tests (the CI "batched" job
#: raises it to exercise real multi-process sharding on every push)
TEST_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))


@pytest.fixture
def small_space():
    return ParameterSpace([
        Parameter("TC", (32, 64, 128, 256)),
        Parameter("BC", (24, 48)),
        Parameter("UIF", (1, 2)),
    ])


class TestParameterSpace:
    def test_size_and_iteration(self, small_space):
        assert len(small_space) == 16
        configs = list(small_space)
        assert len(configs) == 16
        assert all(set(c) == {"TC", "BC", "UIF"} for c in configs)

    def test_coords_roundtrip(self, small_space):
        cfg = {"TC": 128, "BC": 48, "UIF": 2}
        assert small_space.config_at(small_space.coords_of(cfg)) == cfg

    def test_clip(self, small_space):
        assert small_space.clip((-5, 99, 1)) == (0, 1, 1)

    def test_restrict(self, small_space):
        r = small_space.restrict("TC", [64, 256, 9999])
        assert len(r) == 8
        assert r.by_name["TC"].values == (64, 256)

    def test_restrict_to_nothing_rejected(self, small_space):
        with pytest.raises(ValueError):
            small_space.restrict("TC", [7])

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Parameter("X", (1, 1))

    def test_validate_config(self, small_space):
        with pytest.raises(ValueError, match="not allowed"):
            small_space.validate_config({"TC": 5, "BC": 24, "UIF": 1})
        with pytest.raises(ValueError, match="missing"):
            small_space.validate_config({"TC": 32, "BC": 24})

    @settings(max_examples=50, deadline=None)
    @given(i=st.integers(0, 15))
    def test_config_at_total(self, i):
        space = ParameterSpace([
            Parameter("A", (1, 2, 3, 4)), Parameter("B", (10, 20, 30, 40)),
        ])
        coords = (i % 4, i // 4)
        cfg = space.config_at(coords)
        assert space.coords_of(cfg) == coords


class TestSpecParsing:
    def test_default_spec_is_paper_space(self):
        space = parse_perf_tuning(DEFAULT_SPEC_TEXT)
        assert len(space) == 5120
        assert space.names() == ["TC", "BC", "UIF", "PL", "CFLAGS"]
        assert space.by_name["TC"].values[:3] == (32, 64, 96)
        assert space.by_name["CFLAGS"].values == ("", "-use_fast_math")

    def test_range_with_step(self):
        space = parse_perf_tuning(
            "def performance_params { param X[] = range(0,10,3); }"
        )
        assert space.by_name["X"].values == (0, 3, 6, 9)

    def test_list_of_strings(self):
        space = parse_perf_tuning(
            "def performance_params { param F[] = ['a', 'b,c']; }"
        )
        assert space.by_name["F"].values == ("a", "b,c")

    @pytest.mark.parametrize(
        "text,match",
        [
            ("nothing here", "no performance_params"),
            ("def performance_params { }", "no parameters"),
            ("def performance_params { param X[] = range(5,5); }", "empty"),
            ("def performance_params { param X[] = blob; }", "cannot parse"),
        ],
    )
    def test_errors(self, text, match):
        with pytest.raises(SpecError, match=match):
            parse_perf_tuning(text)


class TestMeasurer:
    def test_module_cache_reuse(self):
        bm = get_benchmark("atax")
        m = Measurer(bm, K20)
        c1 = {"TC": 32, "BC": 24, "UIF": 2, "PL": 16, "CFLAGS": ""}
        c2 = {"TC": 512, "BC": 96, "UIF": 2, "PL": 16, "CFLAGS": ""}
        assert m.module_for(c1) is m.module_for(c2)  # same compile key
        c3 = dict(c1, UIF=3)
        assert m.module_for(c3) is not m.module_for(c1)

    def test_compile_key_ignores_l1_preference(self):
        from repro.autotune.measure import compile_config_key

        cfg = {"TC": 64, "BC": 48, "UIF": 2, "PL": 16, "CFLAGS": ""}
        assert compile_config_key(cfg) == compile_config_key(dict(cfg, PL=48))

    def test_table3_space_compiles_one_module_per_uif_and_cflags(self):
        m = Measurer(get_benchmark("atax"), K20)
        modules = {id(m.module_for(c)) for c in default_tuning_spec()}
        assert len(modules) == 10

    def test_bad_l1_preference_fails_the_point(self):
        from repro.autotune.measure import MeasurementError

        cfg = {"TC": 64, "BC": 48, "UIF": 1, "PL": 32, "CFLAGS": ""}
        with pytest.raises(MeasurementError, match="16 or 48"):
            Measurer(get_benchmark("atax"), K20).measure_many([(cfg, 64)])

    def test_measurement_deterministic(self):
        bm = get_benchmark("atax")
        cfg = {"TC": 128, "BC": 48, "UIF": 1, "PL": 16, "CFLAGS": ""}
        a = Measurer(bm, K20).measure(cfg, 64)
        b = Measurer(bm, K20).measure(cfg, 64)
        assert a.seconds == b.seconds

    def test_noise_across_configs_differs(self):
        bm = get_benchmark("atax")
        m = Measurer(bm, K20)
        a = m.measure({"TC": 128, "BC": 48, "UIF": 1, "PL": 16,
                       "CFLAGS": ""}, 64)
        b = m.measure({"TC": 128, "BC": 72, "UIF": 1, "PL": 16,
                       "CFLAGS": ""}, 64)
        assert a.seconds != b.seconds

    def test_fields_populated(self):
        bm = get_benchmark("ex14fj")
        m = Measurer(bm, K20).measure(
            {"TC": 256, "BC": 48, "UIF": 1, "PL": 16, "CFLAGS": ""}, 8
        )
        assert m.launchable
        assert 0 < m.occupancy <= 1
        assert m.regs_per_thread > 0
        assert m.reg_instructions > 0


class TestRanking:
    def test_split_within_sizes(self):
        from repro.autotune.measure import VariantMeasurement

        ms = []
        for size, base in ((32, 1.0), (64, 100.0)):
            for k in range(4):
                ms.append(VariantMeasurement(
                    config={"TC": 32 * (k + 1)}, size=size,
                    seconds=base + k, occupancy=0.5, regs_per_thread=20,
                    reg_instructions=1.0,
                ))
        ranked = rank_split(ms)
        r1 = [rv for rv in ranked if rv.rank == 1]
        # two per size group, not four from the small size
        assert sorted(rv.measurement.size for rv in r1) == [32, 32, 64, 64]

    def test_unlaunchable_excluded(self):
        from repro.autotune.measure import VariantMeasurement

        good = VariantMeasurement({"TC": 32}, 32, 1.0, 0.5, 20, 1.0)
        bad = VariantMeasurement({"TC": 2048}, 32, float("inf"), 0.0, 20, 1.0)
        ranked = rank_split([good, bad])
        assert len(ranked) == 1


def _quadratic_objective(space):
    """Deterministic synthetic objective with a unique known optimum."""
    best = {p.name: p.values[len(p) // 2] for p in space.parameters}

    def f(config):
        return 1.0 + sum(
            (space.by_name[k].index_of(config[k])
             - space.by_name[k].index_of(best[k])) ** 2
            for k in config
        )

    return f, best


class TestSearchStrategies:
    def test_exhaustive_finds_optimum(self, small_space):
        f, best = _quadratic_objective(small_space)
        res = ExhaustiveSearch().search(small_space, f)
        assert res.best_config == best
        assert res.evaluations == len(small_space)
        assert res.space_reduction == 0.0

    def test_exhaustive_budget(self, small_space):
        f, _ = _quadratic_objective(small_space)
        res = ExhaustiveSearch().search(small_space, f, budget=5)
        assert res.evaluations == 5

    @pytest.mark.parametrize("cls,kwargs,tol", [
        (RandomSearch, {"budget": 60}, 9.0),
        (SimulatedAnnealingSearch, {"budget": 120}, 3.0),
        (GeneticSearch, {"population": 12, "generations": 8}, 3.0),
        (NelderMeadSearch, {"budget": 100}, 3.0),
    ])
    def test_heuristics_reach_near_optimum(self, cls, kwargs, tol):
        space = ParameterSpace([
            Parameter("A", tuple(range(16))),
            Parameter("B", tuple(range(16))),
        ])
        f, best = _quadratic_objective(space)
        res = cls(seed=7, **kwargs).search(space, f)
        assert res.best_value <= tol  # near the optimum (value 1.0)
        assert res.evaluations <= 130

    def test_random_search_deterministic_by_seed(self, small_space):
        f, _ = _quadratic_objective(small_space)
        a = RandomSearch(budget=8, seed=3).search(small_space, f)
        b = RandomSearch(budget=8, seed=3).search(small_space, f)
        assert [h[0] for h in a.history] == [h[0] for h in b.history]

    def test_registry(self):
        assert isinstance(get_search("random", budget=5), RandomSearch)
        with pytest.raises(KeyError):
            get_search("quantum")


class _NumpyNelderMead(NelderMeadSearch):
    """The NumPy form of the simplex moves, kept as the reference that
    the Python-float moves must reproduce bit for bit."""

    def _proposals(self, space, budget):
        import numpy as np

        from repro.util.rng import rng_for

        n_budget = budget if budget is not None else self.budget
        rng = rng_for("search", "simplex", self.seed)
        dims = len(space.parameters)

        def snap(x):
            return space.config_at(space.clip(np.round(x).astype(int)))

        def random_simplex():
            base = np.array(
                [rng.integers(len(p)) for p in space.parameters], dtype=float
            )
            pts = [base]
            for d in range(dims):
                v = base.copy()
                span = max(1.0, (len(space.parameters[d]) - 1) / 3.0)
                v[d] += span if rng.random() < 0.5 else -span
                pts.append(v)
            return pts

        simplex = random_simplex()
        values = list((yield [snap(x) for x in simplex]))
        for _move in range(50 * n_budget + 100):
            order = np.argsort(values, kind="stable")
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]
            if np.allclose(simplex[0], worst):
                simplex = random_simplex()
                values = list((yield [snap(x) for x in simplex]))
                continue
            refl = centroid + self.alpha * (centroid - worst)
            f_refl = (yield [snap(refl)])[0]
            if values[0] <= f_refl < values[-2]:
                simplex[-1], values[-1] = refl, f_refl
            elif f_refl < values[0]:
                exp = centroid + self.gamma * (refl - centroid)
                f_exp = (yield [snap(exp)])[0]
                if f_exp < f_refl:
                    simplex[-1], values[-1] = exp, f_exp
                else:
                    simplex[-1], values[-1] = refl, f_refl
            else:
                contr = centroid + self.rho * (worst - centroid)
                f_contr = (yield [snap(contr)])[0]
                if f_contr < values[-1]:
                    simplex[-1], values[-1] = contr, f_contr
                else:
                    best = simplex[0]
                    simplex = [best] + [
                        best + self.sigma * (x - best) for x in simplex[1:]
                    ]
                    shrunk = list((yield [snap(x) for x in simplex[1:]]))
                    values = [values[0]] + shrunk


def _batches(strategy, space, objective, budget, limit=1000) -> list:
    """The batches a strategy's proposal process yields, answered by
    ``objective``, until it ends, has proposed ``budget`` distinct
    points (where an ask/tell driver stops it) or has yielded ``limit``
    batches (a space smaller than the budget spins to the move bound)."""
    gen = strategy._proposals(space, budget)
    batches, seen = [], set()
    batch = next(gen)
    while True:
        batches.append(batch)
        seen.update(config_key(c) for c in batch)
        if len(seen) >= budget or len(batches) == limit:
            return batches
        try:
            batch = gen.send([objective(c) for c in batch])
        except StopIteration:
            return batches


class TestSimplexMovesMatchNumpy:
    """The Python-float simplex yields exactly the batches its NumPy
    form does: same centroid folds, degeneracy tests and snaps."""

    SURFACES = ("distinct", "three-way ties", "inf", "flat")

    @staticmethod
    def _case(case: int):
        import random

        rng = random.Random(case)
        space = ParameterSpace([
            Parameter(f"P{d}", tuple(range(rng.randint(1, 32))))
            for d in range(rng.randint(1, 6))
        ])
        surface = TestSimplexMovesMatchNumpy.SURFACES[case % 4]
        table = {}

        def objective(config):
            key = config_key(config)
            if key not in table:
                if surface == "distinct":
                    table[key] = rng.random()
                elif surface == "three-way ties":
                    table[key] = float(rng.randrange(3))
                elif surface == "inf":
                    table[key] = (float("inf") if rng.random() < 0.3
                                  else float(rng.randrange(5)))
                else:
                    table[key] = 1.0
            return table[key]

        return space, objective, rng.randint(3, 64), surface

    @pytest.mark.parametrize("block", range(8))
    def test_batches_identical_to_numpy_form(self, block):
        for case in range(block * 50, block * 50 + 50):
            space, objective, budget, surface = self._case(case)
            want = _batches(_NumpyNelderMead(seed=case), space, objective,
                            budget)
            got = _batches(NelderMeadSearch(seed=case), space, objective,
                           budget)
            assert got == want, (case, space.shape(), budget, surface)

    def test_centroid_is_numpys_mean(self):
        import random

        import numpy as np

        from repro.autotune.search.simplex import _centroid

        # a simplex's centroid is over as many rows as it has axes
        rng = random.Random(0)
        for _ in range(2000):
            dims = rng.randint(1, 12)
            rows = [[rng.uniform(-40, 40) for _ in range(dims)]
                    for _ in range(dims)]
            assert _centroid(rows) == np.mean(rows, axis=0).tolist()


class TestStaticSearchIntegration:
    def test_paper_reduction_numbers(self):
        """Kepler: |T*| = 4 of 32 -> 87.5%; with the rule 2 of 32 -> 93.75%."""
        bm = get_benchmark("atax")
        tuner = Autotuner(bm, K20)
        out = tuner.tune(size=64, search="static")
        assert out.search.space_reduction == pytest.approx(0.875)
        assert out.search.evaluations == 5120 // 8
        out_rb = tuner.tune(size=64, search="static", use_rule=True)
        assert out_rb.search.space_reduction == pytest.approx(0.9375)

    def test_static_search_quality(self):
        """The pruned search must stay close to the exhaustive optimum."""
        from repro.experiments.common import reduced_space

        bm = get_benchmark("atax")
        tuner = Autotuner(bm, K20, space=reduced_space())
        ex = tuner.tune(size=256, search="exhaustive")
        stat = tuner.tune(size=256, search="static")
        assert stat.best_seconds <= 1.25 * ex.best_seconds

    def test_static_search_inner_strategy(self):
        bm = get_benchmark("atax")
        tuner = Autotuner(bm, K20)
        out = tuner.tune(size=64, search="static", inner="random", budget=40)
        assert out.search.evaluations <= 40
        assert out.search.space_reduction == pytest.approx(0.875)

    def test_static_needs_size(self):
        bm = get_benchmark("atax")
        tuner = Autotuner(bm, K20)
        with pytest.raises(ValueError, match="size"):
            tuner.make_search("static")


class TestStaticSearchReadsTheMeasuredModule:
    """Static search prunes from the measurement view a measurer holds at
    the default compile key: it compiles nothing of its own, and prunes
    exactly as the static analyzer's full compile does."""

    @pytest.fixture
    def compiles(self, monkeypatch, cold_module_cache):
        """The kernel name of every measurement compile; a compile
        through the static analyzer fails the test."""
        from repro.autotune import measure
        from repro.core import analyzer

        def refuse(*args, **kwargs):
            raise AssertionError("compiled through the static analyzer")

        names = []
        real = measure.compile_module

        def counting(name, specs, options):
            names.append(name)
            return real(name, specs, options)

        monkeypatch.setattr(analyzer, "compile_module", refuse)
        monkeypatch.setattr(measure, "compile_module", counting)
        return names

    @staticmethod
    def _reset(benchmark, size, gpu=K20, use_rule=False):
        strategy = StaticSearch(benchmark, gpu, size, use_rule=use_rule)
        strategy.reset(_engine_space())
        return strategy

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_prunes_as_the_analyzer_does(self, name):
        from repro.core.analyzer import StaticAnalyzer

        bm = get_benchmark(name)
        for gpu in ALL_GPUS:
            for size in bm.sizes:
                report = StaticAnalyzer(gpu).analyze(
                    list(bm.specs), bm.param_env(size), name=bm.name,
                )
                for use_rule in (False, True):
                    got = self._reset(bm, size, gpu, use_rule)
                    assert got.suggestion == report.suggestion
                    assert got.rule_threads == report.rule_threads
                    assert repr(got.intensity) == repr(report.intensity)

    def test_static_tunes_compile_only_what_they_measure(self, compiles):
        """atax compiles one module per compile key, and nothing for a
        second size; a renamed copy of it the registry does not know
        shares its specs, so it compiles nothing at all."""
        import dataclasses

        atax = get_benchmark("atax")
        copy = dataclasses.replace(atax, name="atax_copy")
        for bm, cold in ((atax, 4), (copy, 0)):
            compiles.clear()
            tuner = Autotuner(bm, K20, space=_engine_space())
            first = tuner.tune(size=64, search="static", use_rule=True)
            assert compiles == [bm.name] * cold  # one per compile key
            tuner.tune(size=128, search="static", use_rule=True)
            again = tuner.tune(size=64, search="static", use_rule=True)
            assert compiles == [bm.name] * cold  # none for a second size
            assert again.best_config == first.best_config
            assert again.results.measurements == first.results.measurements

    def test_an_unregistered_copy_prunes_from_its_own_specs(self, compiles):
        """A copy that borrows a registered name is compiled from its own
        specs, never served the registered kernel's view, and a second
        reset compiles nothing.  Its specs are ex14fj's, so ex14fj's own
        view shares its compile.  atax and ex14fj share T* on every GPU
        at the default compile key, so their registers and rule threads
        tell them apart."""
        import dataclasses

        atax, ex14fj = get_benchmark("atax"), get_benchmark("ex14fj")
        impostor = dataclasses.replace(ex14fj, name="atax")
        registered = self._reset(atax, 32, use_rule=True)
        copy = self._reset(impostor, 32, use_rule=True)
        own = self._reset(ex14fj, 32, use_rule=True)
        assert copy.suggestion.regs_used == own.suggestion.regs_used
        assert copy.suggestion.regs_used != registered.suggestion.regs_used
        assert copy.rule_threads == own.rule_threads
        assert copy.rule_threads != registered.rule_threads
        assert compiles == ["atax", "atax"]
        self._reset(impostor, 32, use_rule=True)
        again = self._reset(atax, 32, use_rule=True)
        assert again.rule_threads == registered.rule_threads
        assert compiles == ["atax", "atax"]


# ---------------------------------------------------------------------------
# the ask/tell protocol


class TestAskTellProtocol:
    def test_manual_drive_matches_search(self, small_space):
        """Driving ask/tell by hand reproduces search() exactly."""
        f, _ = _quadratic_objective(small_space)
        auto = GeneticSearch(population=6, generations=4, seed=5).search(
            small_space, f, budget=20
        )
        manual = GeneticSearch(population=6, generations=4, seed=5)
        manual.reset(small_space, budget=20)
        while not manual.done:
            k = manual.remaining
            if k == 0:
                break
            configs = manual.ask(k)
            if not configs:
                break
            manual.tell(configs, [f(c) for c in configs])
        got = manual.result()
        assert got.history == auto.history
        assert got.best_config == auto.best_config
        assert got.best_value == auto.best_value

    def test_ask_respects_k(self, small_space):
        s = ExhaustiveSearch()
        s.reset(small_space)
        batch = s.ask(3)
        assert len(batch) == 3
        s.tell(batch, [1.0, 2.0, 3.0])
        assert s.done  # truncated batch terminates the strategy
        assert s.result().evaluations == 3

    def test_ask_defaults_to_remaining_budget(self, small_space):
        """ask() without k must not overrun the budget set in reset()."""
        s = ExhaustiveSearch()
        s.reset(small_space, budget=5)
        batch = s.ask()
        assert len(batch) == 5
        s.tell(batch, [float(i) for i in range(5)])
        assert s.result().evaluations == 5

    def test_ask_while_pending_rejected(self, small_space):
        s = RandomSearch(budget=8, seed=1)
        s.reset(small_space)
        s.ask(4)
        with pytest.raises(RuntimeError, match="awaiting tell"):
            s.ask(4)

    def test_tell_without_ask_rejected(self, small_space):
        s = RandomSearch(budget=8, seed=1)
        s.reset(small_space)
        with pytest.raises(RuntimeError, match="without a pending ask"):
            s.tell([], [])

    def test_tell_mismatch_rejected(self, small_space):
        s = RandomSearch(budget=8, seed=1)
        s.reset(small_space)
        batch = s.ask(4)
        with pytest.raises(ValueError, match="one value per"):
            s.tell(batch, [1.0])
        with pytest.raises(ValueError, match="do not match"):
            s.tell(list(reversed(batch)), [1.0] * len(batch))

    def test_result_before_any_tell_rejected(self, small_space):
        s = RandomSearch(budget=8, seed=1)
        s.reset(small_space)
        with pytest.raises(ValueError, match="evaluated nothing"):
            s.result()

    def test_repeated_proposals_served_from_cache(self, small_space):
        """Elites resurface every generation but are never re-charged."""
        f, _ = _quadratic_objective(small_space)
        calls = []

        def counting(config):
            calls.append(dict(config))
            return f(config)

        res = GeneticSearch(population=8, generations=6, seed=2).search(
            small_space, counting
        )
        keys = [tuple(sorted(c.items())) for c in calls]
        assert len(keys) == len(set(keys)), "a config was measured twice"
        assert res.evaluations == len(calls)


# ---------------------------------------------------------------------------
# budget accounting and infeasible spaces (the seed's crash/wedge bugs)


ALL_INF = float("inf")


class TestBudgetAndInfeasible:
    @pytest.mark.parametrize("cls,kwargs", [
        (RandomSearch, {"budget": 10}),
        (SimulatedAnnealingSearch, {"budget": 10}),
        (GeneticSearch, {"population": 6, "generations": 2}),
        (NelderMeadSearch, {"budget": 10}),
        (ExhaustiveSearch, {}),
    ])
    def test_all_infeasible_space_returns_first_config(self, small_space,
                                                       cls, kwargs):
        """No strategy may crash when nothing is launchable; the result
        reports the first evaluated config at inf."""
        res = cls(**kwargs).search(small_space, lambda c: ALL_INF)
        assert res.best_value == ALL_INF
        assert res.best_config == res.history[0][0]
        assert res.evaluations >= 1

    def test_random_infeasible_spends_full_budget(self, small_space):
        res = RandomSearch(budget=10, seed=4).search(
            small_space, lambda c: ALL_INF
        )
        assert res.evaluations == 10

    def test_annealing_exact_budget_accounting(self, small_space):
        f, _ = _quadratic_objective(small_space)
        for budget in (7, 16, 33):
            res = SimulatedAnnealingSearch(seed=1).search(
                small_space, f, budget=budget
            )
            assert res.evaluations == budget

    def test_random_exact_budget_accounting(self, small_space):
        f, _ = _quadratic_objective(small_space)
        res = RandomSearch(seed=1).search(small_space, f, budget=9)
        assert res.evaluations == 9
        # a budget beyond the space clamps to the space size
        res = RandomSearch(seed=1).search(small_space, f, budget=1000)
        assert res.evaluations == len(small_space)

    def test_genetic_budget_below_population_terminates(self, small_space):
        """The seed spun its generation loop on uncached inf sentinels
        here; now the run ends cleanly at exactly the budget."""
        f, best = _quadratic_objective(small_space)
        res = GeneticSearch(population=12, generations=5, seed=3).search(
            small_space, f, budget=5
        )
        assert res.evaluations == 5
        assert res.best_value == min(v for _, v in res.history)

    def test_simplex_budget_below_simplex_size_terminates(self):
        space = ParameterSpace([
            Parameter("A", tuple(range(8))),
            Parameter("B", tuple(range(8))),
            Parameter("C", tuple(range(8))),
        ])
        f, _ = _quadratic_objective(space)
        res = NelderMeadSearch(seed=3).search(space, f, budget=3)
        assert res.evaluations == 3  # initial simplex alone needs 4

    def test_budget_never_exceeded(self, small_space):
        f, _ = _quadratic_objective(small_space)
        for cls, kwargs in [
            (RandomSearch, {}),
            (SimulatedAnnealingSearch, {}),
            (GeneticSearch, {"population": 6, "generations": 8}),
            (NelderMeadSearch, {}),
            (ExhaustiveSearch, {}),
        ]:
            res = cls(**kwargs).search(small_space, f, budget=11)
            assert res.evaluations <= 11, cls.name

    def test_annealing_reseeds_unlaunchable_start(self):
        """Chains starting on an inf point adopt a launchable start (the
        seed could wedge, burning budget without moving)."""
        space = ParameterSpace([
            Parameter("A", tuple(range(16))),
            Parameter("B", tuple(range(16))),
        ])

        def half_infeasible(config):
            if config["A"] < 8:
                return ALL_INF
            return 1.0 + (config["A"] - 12) ** 2 + (config["B"] - 8) ** 2

        res = SimulatedAnnealingSearch(budget=60, seed=0).search(
            space, half_infeasible
        )
        assert math.isfinite(res.best_value)
        assert res.evaluations == 60
        assert res.best_value <= 5.0


# ---------------------------------------------------------------------------
# batched evaluation through the sweep engine


def _engine_space() -> ParameterSpace:
    """A small but real slice of the Table III space (TC values overlap
    the analyzer's T* so static search works on it too)."""
    return ParameterSpace([
        Parameter("TC", (64, 128, 256, 512)),
        Parameter("BC", (48, 144)),
        Parameter("UIF", (1, 3)),
        Parameter("PL", (16,)),
        Parameter("CFLAGS", ("", "-use_fast_math")),
    ])


STRATEGY_MATRIX = [
    ("exhaustive", {}),
    ("static", {}),
    ("random", {"budget": 20}),
    ("annealing", {"budget": 20}),
    ("genetic", {"population": 6, "generations": 3}),
    ("simplex", {"budget": 20}),
]


class TestBatchedStrategies:
    """Every strategy must evaluate via batches through the engine and
    produce byte-identical results across jobs settings."""

    @pytest.mark.parametrize("search,kwargs", STRATEGY_MATRIX)
    def test_engine_results_identical_to_serial(self, search, kwargs):
        from repro.engine import SweepEngine

        bm = get_benchmark("atax")

        def tune(engine):
            return Autotuner(bm, K20, space=_engine_space()).tune(
                size=64, search=search, engine=engine, **kwargs
            )

        base, measured = reference_tune(bm, K20, _engine_space(), 64,
                                        search, **kwargs)
        with SweepEngine(jobs=1) as eng1:
            via_eng1 = tune(eng1)
        with SweepEngine(jobs=TEST_JOBS) as engn:
            via_engn = tune(engn)
        for out in (via_eng1, via_engn):
            assert out.search.history == base.history
            assert out.best_config == base.best_config
            assert out.best_seconds == base.best_value
            assert [
                json.dumps(vars(m)) for m in out.results.measurements
            ] == [json.dumps(vars(m)) for m in measured]

    @pytest.mark.parametrize("search,kwargs", STRATEGY_MATRIX)
    def test_every_strategy_consults_engine(self, search, kwargs):
        from repro.engine import SweepEngine

        bm = get_benchmark("atax")
        with SweepEngine(jobs=1) as engine:
            out = Autotuner(bm, K20, space=_engine_space()).tune(
                size=64, search=search, engine=engine, **kwargs
            )
        assert engine.last_stats is not None, "engine never consulted"
        assert engine.total_measured == out.search.evaluations

    def test_warm_genetic_rerun_measures_nothing(self, tmp_path):
        """A genetic re-run against a warm cache must be served entirely
        from disk: zero fresh measurements."""
        from repro.engine import CacheStore, SweepEngine

        bm = get_benchmark("atax")

        def tune(engine):
            return Autotuner(bm, K20, space=_engine_space()).tune(
                size=64, search="genetic", population=8, generations=3,
                engine=engine,
            )

        with SweepEngine(jobs=1, cache=CacheStore(tmp_path)) as engine:
            cold = tune(engine)
            measured = engine.total_measured
            assert measured == cold.search.evaluations > 0
            warm = tune(engine)
            assert engine.total_measured == measured, (
                "warm re-run performed fresh measurements"
            )
            assert warm.search.history == cold.search.history
            assert warm.best_config == cold.best_config

    def test_tuner_jobs_cache_args_reach_every_strategy(self, tmp_path):
        """The jobs=/cache= shorthand must batch heuristic strategies,
        not only exhaustive/static."""
        base, _ = reference_tune(get_benchmark("atax"), K20, _engine_space(),
                                 64, "random", budget=12)
        cached = Autotuner(get_benchmark("atax"), K20,
                           space=_engine_space()).tune(
            size=64, search="random", budget=12,
            jobs=TEST_JOBS, cache=tmp_path,
        )
        assert cached.search.history == base.history
        assert cached.best_config == base.best_config

    def test_engine_built_from_jobs_or_cache_is_closed(self, tmp_path,
                                                       monkeypatch):
        """An engine the tuner builds for itself is closed when the tune
        or sweep returns; one the caller passes in is left open."""
        from repro.engine import SweepEngine

        closed = []
        real_close = SweepEngine.close

        def counting_close(self):
            closed.append(self)
            real_close(self)

        monkeypatch.setattr(SweepEngine, "close", counting_close)
        tuner = Autotuner(get_benchmark("atax"), K20, space=_engine_space())
        tuner.tune(size=64, search="random", budget=4, jobs=2)
        assert len(closed) == 1
        tuner.sweep(sizes=(64,), cache=tmp_path)
        assert len(closed) == 2
        assert closed[1].cache._closed
        with SweepEngine(jobs=1) as engine:
            tuner.tune(size=64, search="random", budget=4, engine=engine)
            assert len(closed) == 2

    def test_failing_point_fails_the_tune(self):
        """A point that keeps failing is quarantined by the engine; the
        tune raises with its error rather than search on a partial
        batch."""
        space = ParameterSpace([Parameter("TC", (64,))])  # no BC axis
        with pytest.raises(RuntimeError, match="KeyError: 'BC'"):
            Autotuner(get_benchmark("atax"), K20, space=space).tune(size=64)

    def test_genetic_tune_compiles_each_key_once(self, monkeypatch,
                                                 cold_module_cache):
        """Every round of a search runs on the tuner's one Measurer, so
        each compile key it reaches compiles once per tune."""
        from repro.autotune import measure
        from repro.engine import SweepEngine

        compiled = []
        real = measure.compile_module

        def counting(name, specs, options):
            compiled.append(options)
            return real(name, specs, options)

        monkeypatch.setattr(measure, "compile_module", counting)
        with SweepEngine(jobs=1) as engine:
            out = Autotuner(get_benchmark("atax"), K20,
                            space=_engine_space()).tune(
                size=64, search="genetic", population=6, generations=4,
                engine=engine,
            )
        assert out.search.evaluations > 6  # more than one round
        keys = {measure.compile_config_key(m.config)
                for m in out.results.measurements}
        assert len(compiled) == len(set(compiled)) == len(keys) > 1


class TestMeasurerPickling:
    def test_pickle_drops_plan_memo_keeps_measurements(self):
        import pickle

        cfg = {"TC": 64, "BC": 48, "UIF": 1, "PL": 16, "CFLAGS": ""}
        measurer = Measurer(get_benchmark("atax"), K20)
        expected = measurer.measure(cfg, 64)
        assert measurer._plans and measurer._occupancy
        clone = pickle.loads(pickle.dumps(measurer))
        assert clone is not measurer
        assert clone._plans == clone._occupancy == {}
        assert clone.measure(cfg, 64) == expected


@pytest.fixture
def compiled(monkeypatch):
    """The options of every real compile the measurers make."""
    from repro.autotune import measure

    calls = []
    real = measure.compile_module

    def counting(name, specs, options):
        calls.append(options)
        return real(name, specs, options)

    monkeypatch.setattr(measure, "compile_module", counting)
    return calls


@pytest.mark.usefixtures("cold_module_cache")
class TestProcessModuleCache:
    """Every measurer in a process serves every benchmark's modules from
    one bounded memo of measurement views."""

    CFG = {"TC": 64, "BC": 48, "UIF": 2, "PL": 16, "CFLAGS": ""}

    def test_second_identical_tune_compiles_nothing(self, compiled):
        import json

        from repro.api import tune

        first = tune("atax", "kepler", 64, search="random", budget=24, seed=1)
        cold = len(compiled)
        second = tune("atax", "kepler", 64, search="random", budget=24,
                      seed=1)
        assert cold > 1
        assert len(compiled) == cold
        assert (json.dumps(second.to_json())
                == json.dumps(first.to_json()))

    def test_a_copy_shares_the_process_view(self, compiled):
        """An unregistered copy that shares a benchmark's specs reads the
        one view the process compiled for both."""
        import dataclasses

        from repro.autotune import measure

        registered = get_benchmark("atax")
        copy = dataclasses.replace(registered)
        a = Measurer(copy, K20).measure(self.CFG, 64)
        b = Measurer(copy, K20).measure(self.CFG, 64)
        assert a == b == Measurer(registered, K20).measure(self.CFG, 64)
        assert len(compiled) == 1
        assert len(measure._views) == 1

    def test_copied_specs_share_the_registered_trees(self, compiled):
        """Equal specs that are other objects get their own view, over
        the registered view's compile and region trees, and measure the
        same bits; K20 and P100 share one compile."""
        import copy
        import dataclasses

        from repro.arch import P100

        atax = get_benchmark("atax")
        twin = dataclasses.replace(atax, specs=copy.deepcopy(atax.specs))
        for gpu in (K20, P100):
            registered, copied = Measurer(atax, gpu), Measurer(twin, gpu)
            view = registered.module_for(self.CFG)
            twin_view = copied.module_for(self.CFG)
            assert twin_view is not view
            for mine, theirs in zip(twin_view, view):
                assert mine.root_region is theirs.root_region
            assert (repr(copied.measure(self.CFG, 64))
                    == repr(registered.measure(self.CFG, 64)))
        assert len(compiled) == 1

    def test_view_keys_hold_the_specs_they_name(self):
        """A key names its specs by id, and its entry holds those specs,
        so no other specs can take the id while the entry lives."""
        import copy
        import dataclasses

        from repro.autotune import measure

        atax, bicg = get_benchmark("atax"), get_benchmark("bicg")
        for bm in (atax, dataclasses.replace(atax),
                   dataclasses.replace(atax, name="atax_copy"),
                   dataclasses.replace(bicg, specs=copy.deepcopy(bicg.specs)),
                   bicg):
            Measurer(bm, K20).measure(self.CFG, 64)
        assert len(measure._views) == 4
        for (_, specs_id, _), (specs, _) in measure._views.items():
            assert specs_id == id(specs)

    def test_bounded_and_eviction_keeps_measurements(self, monkeypatch):
        from repro.autotune import measure

        for memo in (measure._views, measure._kernels):
            monkeypatch.setattr(memo, "limit", 3)
        bm = get_benchmark("atax")
        before = Measurer(bm, K20).measure(self.CFG, 64)
        for uif in (1, 2, 3, 4, 5):
            for cflags in ("", "-use_fast_math"):
                Measurer(bm, K20).module_for(
                    dict(self.CFG, UIF=uif, CFLAGS=cflags))
                assert len(measure._views) <= 3
        key = (bm.name, id(bm.specs), measure.compile_options(K20, self.CFG))
        assert key not in measure._views
        after = Measurer(bm, K20).measure(self.CFG, 64)
        assert repr(after) == repr(before)

    @pytest.fixture
    def walks(self, monkeypatch):
        """The region trees every tree walk of the count memo visits."""
        from repro.sim import counting

        roots = []
        real = counting.evaluate_region_tree

        def counting_walk(root, *args, **kwargs):
            roots.append(root)
            return real(root, *args, **kwargs)

        monkeypatch.setattr(counting, "evaluate_region_tree", counting_walk)
        return roots

    def test_measurers_share_count_forms_per_region_tree(self, walks):
        """Forms belong to the process, one per region tree: another
        measurer of the same kernel and a GPU that shares the tree count
        nothing again; a GPU with its own tree walks it."""
        from repro.arch import M2050, P100

        bm = get_benchmark("atax")
        first = Measurer(bm, K20).measure(self.CFG, 64)
        cold = len(walks)
        assert cold > 0
        assert repr(Measurer(bm, K20).measure(self.CFG, 64)) == repr(first)
        Measurer(bm, P100).measure(self.CFG, 64)
        assert len(walks) == cold
        Measurer(bm, M2050).measure(self.CFG, 64)
        assert len(walks) == 2 * cold

    def test_unpickled_measurers_compile_and_count_nothing(self, compiled,
                                                           walks):
        """A worker builds a fresh measurer per task from its pickle;
        what the process already compiled and counted serves it."""
        import pickle

        from repro.arch import P100

        bm = get_benchmark("atax")
        expected = [Measurer(bm, gpu).measure(self.CFG, 64)
                    for gpu in (K20, P100)]
        done = len(compiled), len(walks)
        for gpu, want in zip((K20, P100), expected):
            clone = pickle.loads(pickle.dumps(Measurer(bm, gpu)))
            assert repr(clone.measure(self.CFG, 64)) == repr(want)
        assert (len(compiled), len(walks)) == done

    def test_same_address_width_shares_one_region_tree(self):
        from repro.arch import M40, M2050, P100
        from repro.autotune.measure import compile_options
        from repro.codegen.compiler import compile_module

        for bm in (get_benchmark("atax"), get_benchmark("ex14fj")):
            for fast in ("", "-use_fast_math"):
                cfg = dict(self.CFG, CFLAGS=fast)
                trees = {
                    gpu.name: [k.root_region for k in
                               Measurer(bm, gpu).module_for(cfg)]
                    for gpu in (M2050, K20, M40, P100)
                }
                fresh = compile_module(bm.name, list(bm.specs),
                                       compile_options(K20, cfg))
                for i, ck in enumerate(fresh):
                    assert (trees["K20"][i] is trees["M40"][i]
                            is trees["P100"][i])
                    assert trees["K20"][i] == ck.root_region
                    assert trees["M2050"][i] is not trees["K20"][i]

    @pytest.mark.parametrize("limit", [1024, 2])
    def test_racing_threads_leave_one_entry_per_key(self, monkeypatch,
                                                    limit):
        """Eight threads on fresh measurers, switching as often as the
        interpreter allows: nothing raises, and the cache holds only the
        keys measured: all of them below its limit, and at least the last
        one put at it.  A put can race another thread's full-check there,
        so the limit bounds the entries only to within the racing puts."""
        import sys
        import threading

        from repro.autotune import measure

        for memo in (measure._views, measure._kernels):
            monkeypatch.setattr(memo, "limit", limit)
        bm = get_benchmark("atax")
        configs = [dict(self.CFG, UIF=uif) for uif in (1, 2, 3)]
        start = threading.Barrier(8)
        errors = []

        def worker():
            try:
                start.wait()
                for _ in range(5):
                    measurer = Measurer(bm, K20)
                    for cfg in configs:
                        measurer.module_for(cfg)
            except Exception as e:  # reported below
                errors.append(e)

        threads = [threading.Thread(target=worker) for _ in range(8)]
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
        assert errors == []
        keys = {(bm.name, id(bm.specs), measure.compile_options(K20, cfg))
                for cfg in configs}
        assert set(measure._views) <= keys
        if limit > len(keys):
            assert len(measure._views) == len(keys)
        else:
            assert measure._views

    def test_metrics_count_compiles_and_hits(self):
        from repro import obs
        from repro.api import tune

        obs.enable(trace=False)
        try:
            for _ in range(2):
                out = tune("atax", "kepler", 64, search="random", budget=24,
                           seed=1)
            keys = {(m.config["UIF"], m.config["CFLAGS"])
                    for m in out.measurements}
            assert len(keys) > 1
            for name in ("measure.compiles", "measure.module_hits"):
                assert obs.metrics.value(name, kernel="atax") == len(keys)
        finally:
            obs.disable()

    def test_the_switch_makes_the_next_tune_cold(self, cold_module_cache):
        """Right after the switch every registered memo is empty, and a
        tune then compiles and counts what it did after the first switch,
        with the same answer; without the switch, the same tune compiles
        and counts nothing."""
        from repro import obs
        from repro.api import tune
        from repro.autotune import measure
        from repro.sim import counting
        from repro.util.memo import REGISTRY

        memos = (measure._views, measure._kernels, counting._count_cache,
                 counting._fraction_cache)
        assert {id(m) for m in memos} <= {id(m) for m in REGISTRY}

        def counters():
            return (obs.metrics.value("measure.compiles", kernel="atax"),
                    obs.metrics.value("counting.forms"))

        def tune_once():
            before = counters()
            out = tune("atax", "kepler", 64, search="random", budget=32,
                       seed=1)
            after = counters()
            return (json.dumps(out.to_json()),
                    [b - a for a, b in zip(before, after)])

        def switch():
            cold_module_cache()
            assert not any(REGISTRY)

        obs.enable(trace=False)
        try:
            switch()
            first = tune_once()
            assert min(first[1]) > 0
            assert tune_once() == (first[0], [0, 0])
            switch()
            assert tune_once() == first
        finally:
            obs.disable()

    def test_static_mix_of_a_view_is_the_full_compiles(
            self, cold_module_cache):
        """A static mix reads only region trees and parallel extents, so
        a view's, whose tree another GPU's compile may have built, is the
        full compile's bit for bit.  Instruction readers still fail on a
        view."""
        from repro.autotune.measure import compile_options
        from repro.codegen.compiler import compile_module
        from repro.core.instruction_mix import (
            raw_static_mix,
            static_mix_module,
        )

        for bm in BENCHMARKS.values():
            for gpu in ALL_GPUS:
                measurer = Measurer(bm, gpu)
                for uif in (1, 3):
                    for cflags in ("", "-use_fast_math"):
                        cfg = {"UIF": uif, "CFLAGS": cflags}
                        view = measurer.module_for(cfg)
                        full = compile_module(bm.name, list(bm.specs),
                                              compile_options(gpu, cfg))
                        for size in (bm.sizes[0], bm.sizes[-1]):
                            env = bm.param_env(size)
                            assert repr(static_mix_module(view, env)) == repr(
                                static_mix_module(full, env)
                            ), (bm.name, gpu.name, cfg, size)
        view = Measurer(get_benchmark("atax"), K20).module_for(self.CFG)
        with pytest.raises(AttributeError):
            raw_static_mix(view.kernels[0])
        for attr in ("ir", "spec", "source_spec", "log", "disassembly"):
            assert not hasattr(view.kernels[0], attr)


class TestSharedCompilePerAddressWidth:
    """GPUs of one address width share one verified compile per (kernel
    spec, ``UIF``, fast-math): the first to need it compiles, and every
    other builds its view from that compile with its own register
    reservation, clamp and budget check."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_views_equal_each_gpus_own_compile(self, name,
                                               cold_module_cache):
        """From empty memos in the order P100, M40, K20, M2050, each
        view reports what a fresh compile for its GPU reports, and a
        point measured on it is the point measured after emptying the
        memos and compiling that GPU first."""
        from repro.arch import M40, M2050, P100
        from repro.autotune.measure import compile_options
        from repro.codegen.compiler import compile_module
        from repro.suite.corpus import corpus_space

        bm = get_benchmark(name)
        space = corpus_space(bm).by_name
        size = bm.sizes[0]
        gpus = (P100, M40, K20, M2050)
        for uif in sorted({1, 2, 3, 4, 5, 6, *space["UIF"].values}):
            for cflags in ("", "-use_fast_math"):
                cfg = {"TC": space["TC"].values[0],
                       "BC": space["BC"].values[0], "UIF": uif, "PL": 16,
                       "CFLAGS": cflags}
                cold_module_cache()
                shared = []
                for gpu in gpus:
                    measurer = Measurer(bm, gpu)
                    view = measurer.module_for(cfg)
                    fresh = compile_module(bm.name, list(bm.specs),
                                           compile_options(gpu, cfg))
                    assert ([(k.name, k.regs_per_thread,
                              k.static_smem_bytes) for k in view]
                            == [(k.name, k.regs_per_thread,
                                 k.static_smem_bytes) for k in fresh]
                            ), (gpu.name, cfg)
                    shared.append(repr(measurer.measure(cfg, size)))
                for gpu, point in zip(gpus, shared):
                    cold_module_cache()
                    alone = Measurer(bm, gpu).measure(cfg, size)
                    assert repr(alone) == point, (gpu.name, cfg)

    def test_budget_check_matches_the_compilers(self, compiled,
                                                cold_module_cache):
        """A GPU that shares K20's compile but allows fewer registers
        than atax's kernels need raises the compiler's error, and one
        that allows a few more clamps as the compiler does."""
        import dataclasses

        from repro.arch import P100
        from repro.autotune.measure import compile_options
        from repro.codegen.compiler import compile_module
        from repro.ptx.verifier import VerificationError

        def outcome(build):
            try:
                return [k.regs_per_thread for k in build()]
            except VerificationError as e:
                return str(e)

        atax = get_benchmark("atax")
        cfg = {"UIF": 1, "CFLAGS": ""}
        Measurer(atax, K20).module_for(cfg)
        slots = [k.register_slots for k in compile_module(
            atax.name, list(atax.specs), compile_options(K20, cfg))]
        assert slots == [20, 19]
        outcomes = []
        for n in range(max(slots) - 8, max(slots) + 9):
            tight = dataclasses.replace(P100, name="P100-tight",
                                        max_regs_per_thread=n)
            want = outcome(lambda: compile_module(
                atax.name, list(atax.specs), compile_options(tight, cfg)))
            got = outcome(lambda: Measurer(atax, tight).module_for(cfg))
            assert got == want, n
            outcomes.append(want)
        assert len(compiled) == 1  # every tight view shared K20's compile
        assert ("atax_k1: uses 20 register slots but declares only 12"
                in outcomes)
        assert [22, 22] in outcomes  # both clamped, neither over budget
        assert [26, 25] in outcomes  # neither clamped

    def test_racing_gpus_get_their_own_registers(self, monkeypatch,
                                                 cold_module_cache):
        """Eight threads build views of one module on the three 64-bit
        GPUs in different orders, with both memos clearing as often as a
        limit of 2 makes them, switching as often as the interpreter
        allows: nothing raises, and every view reports what its own
        GPU's compile reports."""
        import sys
        import threading

        from repro.arch import M40, P100
        from repro.autotune import measure
        from repro.autotune.measure import compile_options
        from repro.codegen.compiler import compile_module

        for memo in (measure._views, measure._kernels):
            monkeypatch.setattr(memo, "limit", 2)
        bm = get_benchmark("atax")
        gpus = (K20, M40, P100)
        cfgs = [{"UIF": uif, "CFLAGS": ""} for uif in (1, 2)]
        want = {
            (gpu.name, cfg["UIF"]): [
                k.regs_per_thread for k in compile_module(
                    bm.name, list(bm.specs), compile_options(gpu, cfg))]
            for gpu in gpus for cfg in cfgs
        }
        start = threading.Barrier(8)
        errors, got = [], []

        def worker(i):
            try:
                start.wait()
                for r in range(5):
                    for j in range(len(gpus)):
                        gpu = gpus[(i + j + r) % len(gpus)]
                        for cfg in cfgs:
                            view = Measurer(bm, gpu).module_for(cfg)
                            got.append(((gpu.name, cfg["UIF"]),
                                        [k.regs_per_thread for k in view]))
            except Exception as e:  # reported below
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
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
        assert errors == []
        assert len(got) == 8 * 5 * len(gpus) * len(cfgs)
        for key, regs in got:
            assert regs == want[key], key

    def test_one_compile_per_address_width(self, compiled,
                                           cold_module_cache):
        """After a tune on kepler, the same tune on maxwell and pascal
        compiles nothing, and answers as it does from empty memos; fermi
        compiles its own modules."""
        from repro.api import tune

        args = dict(search="random", budget=24, seed=1)
        results, counts = {}, []
        for arch in ("kepler", "maxwell", "pascal", "fermi"):
            results[arch] = tune("atax", arch, 64, **args).to_json()
            counts.append(len(compiled))
        assert counts[0] > 1
        assert counts == [counts[0]] * 3 + [2 * counts[0]]
        for arch in ("maxwell", "pascal"):
            cold_module_cache()
            assert tune("atax", arch, 64, **args).to_json() == results[arch]


class TestMeasurementPlans:
    """A measurer plans each (compile key, size) once, so a point does
    only its launch arithmetic and its noise draw."""

    KEYS = ((1, ""), (3, "-use_fast_math"))
    LAUNCHES = ((32, 24), (128, 48), (256, 144), (1024, 96), (2048, 48))
    """``TC``/``BC`` pairs; no GPU launches 2,048 threads per block."""

    def _points(self, bm, shuffle_seed) -> list:
        import random

        points = [
            ({"TC": tc, "BC": bc, "UIF": uif, "PL": pl, "CFLAGS": cflags},
             size)
            for size in sorted(bm.sizes)[:2]
            for uif, cflags in self.KEYS
            for pl in (16, 48)
            for tc, bc in self.LAUNCHES
        ]
        random.Random(shuffle_seed).shuffle(points)
        return points

    def _assert_batch_matches_single_points(self, bm, gpu):
        points = self._points(bm, f"{bm.name}/{gpu.name}")
        batch = Measurer(bm, gpu).measure_many(points)
        assert any(m.launchable for m in batch)
        assert any(not m.launchable for m in batch)
        for (config, size), got in zip(points, batch):
            want = Measurer(bm, gpu).measure(config, size)
            assert repr(got) == repr(want), (bm.name, gpu.name, config, size)

    def test_plans_change_no_bytes(self):
        """One shuffled batch per registered benchmark on K20 and P100,
        over two sizes, two compile keys and both L1 preferences, is
        byte for byte what fresh measurers measure point by point."""
        from repro.arch import P100
        from repro.kernels import list_benchmarks

        for bm in list_benchmarks():
            for gpu in (K20, P100):
                self._assert_batch_matches_single_points(bm, gpu)

    def test_each_occupancy_is_computed_once(self, monkeypatch):
        """A measurer computes the occupancy of each (``TC``, registers,
        shared memory) once, however many points share it."""
        from repro.autotune import measure

        shapes = []
        real = measure.hw_occupancy

        def counting(gpu, *shape):
            shapes.append(shape)
            return real(gpu, *shape)

        monkeypatch.setattr(measure, "hw_occupancy", counting)
        bm = get_benchmark("atax")
        points = self._points(bm, "occupancy")
        Measurer(bm, K20).measure_many(points)
        assert 0 < len(shapes) == len(set(shapes)) < len(points)

    def test_plans_change_no_bytes_of_an_unregistered_copy(self):
        import dataclasses

        self._assert_batch_matches_single_points(
            dataclasses.replace(get_benchmark("atax")), K20)

    def test_a_plan_that_fails_is_built_again(self):
        """A plan that fails to build names its point and is not kept: the
        same point measures once its env builds."""
        import dataclasses

        from repro.autotune.measure import MeasurementError

        bm = get_benchmark("atax")
        failures = [RuntimeError("env unavailable")]

        def param_env(size):
            if failures:
                raise failures.pop()
            return bm.param_env(size)

        measurer = Measurer(dataclasses.replace(bm, param_env=param_env), K20)
        cfg = {"TC": 64, "BC": 48, "UIF": 1, "PL": 16, "CFLAGS": ""}
        with pytest.raises(MeasurementError, match="env unavailable") as exc:
            measurer.measure_many([(cfg, 64)])
        assert (exc.value.config, exc.value.size) == (cfg, 64)
        assert (repr(measurer.measure(cfg, 64))
                == repr(Measurer(bm, K20).measure(cfg, 64)))

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of the counting and timing entry points, by name, as the
        timing model and the measurer make them."""
        from collections import Counter

        from repro.autotune import measure
        from repro.sim import timing

        seen = Counter()

        def counted(owner, name, label):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                seen[label] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(timing, "exact_counts", "exact_counts")
        counted(measure, "exact_counts", "exact_counts")
        counted(measure, "measure_benchmark", "measure_benchmark")
        return seen

    def test_work_is_done_per_shard(self, calls):
        """A one-shard sweep of 32 points measures 32 times and counts at
        most three times per kernel; the same batch again on the same
        measurer counts nothing."""
        from repro.engine import SweepEngine
        from repro.engine.work import build_work_list, shard_work

        bm = get_benchmark("atax")
        space = ParameterSpace([
            Parameter("TC", tuple(range(32, 1025, 32))),
            Parameter("BC", (48,)),
            Parameter("PL", (16,)),
        ])
        assert len(shard_work(build_work_list(space, [64]))) == 1
        measurer = Measurer(bm, K20)
        with SweepEngine(jobs=1) as engine:
            first = engine.run(measurer, [(c, 64) for c in space])
        assert len(first) == 32
        assert calls["measure_benchmark"] == 32
        assert 0 < calls["exact_counts"] <= 3 * len(bm.specs)

        calls.clear()
        again = measurer.measure_many([(c, 64) for c in space])
        assert calls["exact_counts"] == 0
        assert calls["measure_benchmark"] == 32
        assert [repr(m) for m in again] == [repr(m) for m in first]
