"""The keystone validation: closed-form exact counts == emulator counts.

Also covers branch-fraction exactness (ex14FJ boundary formula), the
affine-in-threads cache, the structural branch-fraction memo, the
data-absent fallback counters, and warp-level count semantics.
"""

import itertools

import numpy as np
import pytest

from repro import obs
from repro.arch import ALL_GPUS, K20, M2050
from repro.autotune import Measurer
from repro.codegen.ast_nodes import IntConst, VarRef
from repro.codegen.compiler import CompileOptions, compile_module
from repro.kernels import BENCHMARKS, get_benchmark
from repro.sim import counting
from repro.sim.counting import (
    exact_branch_fraction,
    exact_counts,
    warp_branch_fraction,
)
from repro.sim.emulator import run_benchmark_emulated
from repro.codegen.regions import (
    ORDINAL,
    Region,
    RegionKind,
    evaluate_region_tree,
)
from repro.util.rng import rng_for

from tests.conftest import make_benchmark_run

ALL_NAMES = ("atax", "bicg", "matvec2d", "ex14fj")


def _model_totals(mod, env, tc, bc):
    from collections import Counter

    total = Counter()
    reg_ops = 0.0
    for ck in mod:
        dc = exact_counts(ck, env, tc, bc)
        for cat, v in dc.by_category.items():
            total[cat] += v
        reg_ops += dc.reg_ops
    return total, reg_ops


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("tc,bc", [(32, 4), (64, 3), (96, 2)])
class TestModelMatchesEmulator:
    def test_category_counts_exact(self, name, tc, bc):
        bm, n, inputs, _ = make_benchmark_run(name)
        env = bm.param_env(n)
        mod = compile_module(name, list(bm.specs), CompileOptions(gpu=K20))
        _, emu = run_benchmark_emulated(mod, inputs, tc=tc, bc=bc)
        model, model_regs = _model_totals(mod, env, tc, bc)
        for cat in set(model) | set(emu.thread_counts):
            assert model.get(cat, 0) == pytest.approx(
                emu.thread_counts.get(cat, 0), abs=0.5
            ), f"{name} {cat} tc={tc} bc={bc}"
        assert model_regs == pytest.approx(emu.reg_ops, abs=0.5)


class TestModelMatchesEmulatorVariants:
    @pytest.mark.parametrize("uf,fm", [(3, False), (2, True)])
    def test_unrolled_fast_math(self, uf, fm):
        bm, n, inputs, _ = make_benchmark_run("ex14fj")
        env = bm.param_env(n)
        mod = compile_module(
            "ex14fj", list(bm.specs),
            CompileOptions(gpu=K20, unroll_factor=uf, fast_math=fm),
        )
        _, emu = run_benchmark_emulated(mod, inputs, tc=64, bc=2)
        model, _ = _model_totals(mod, env, 64, 2)
        for cat in set(model) | set(emu.thread_counts):
            assert model.get(cat, 0) == pytest.approx(
                emu.thread_counts.get(cat, 0), abs=0.5
            )

    def test_fermi_addressing(self):
        bm, n, inputs, _ = make_benchmark_run("atax")
        env = bm.param_env(n)
        mod = compile_module("atax", list(bm.specs),
                             CompileOptions(gpu=M2050))
        _, emu = run_benchmark_emulated(mod, inputs, tc=32, bc=2)
        model, _ = _model_totals(mod, env, 32, 2)
        for cat in set(model) | set(emu.thread_counts):
            assert model.get(cat, 0) == pytest.approx(
                emu.thread_counts.get(cat, 0), abs=0.5
            )


class TestBranchFractions:
    def test_ex14fj_boundary_fraction_exact(self):
        """The THEN fraction must equal 1 - (N-2)^3 / N^3 exactly."""
        bm = get_benchmark("ex14fj")
        for n in (8, 16, 32):
            env = bm.param_env(n)
            mod = compile_module("ex14fj", list(bm.specs),
                                 CompileOptions(gpu=K20))
            ck = mod.kernels[0]
            then_regions = [
                r for r in ck.root_region.walk()
                if r.kind is RegionKind.THEN
            ]
            assert len(then_regions) == 1
            ploop = next(
                r for r in ck.root_region.walk()
                if r.kind is RegionKind.PLOOP
            )
            frac = exact_branch_fraction(then_regions[0], env, [ploop])
            expected = 1.0 - (n - 2) ** 3 / n**3
            assert frac == pytest.approx(expected, abs=1e-12)

    def test_warp_level_at_least_thread_level(self):
        bm = get_benchmark("ex14fj")
        env = bm.param_env(16)
        mod = compile_module("ex14fj", list(bm.specs),
                             CompileOptions(gpu=K20))
        ck = mod.kernels[0]
        t = exact_counts(ck, env, 64, 4, warp_level=False)
        w = exact_counts(ck, env, 64, 4, warp_level=True)
        for cat, n in t.by_category.items():
            assert w.by_category[cat] >= n - 0.5


class TestAffineCache:
    def test_counts_affine_in_threads(self):
        """counts(T) must be exactly affine: the cached reconstruction at
        any T equals a direct evaluation."""
        from repro.codegen.regions import evaluate_region_tree

        bm = get_benchmark("atax")
        env = bm.param_env(32)
        mod = compile_module("atax", list(bm.specs), CompileOptions(gpu=K20))
        ck = mod.kernels[0]
        via_cache = exact_counts(ck, env, 96, 7)
        from repro.sim.counting import exact_branch_fraction as ebf

        direct = evaluate_region_tree(
            ck.root_region, env, total_threads=96 * 7, branch_fraction=ebf
        )
        for cat, v in direct.by_category.items():
            assert via_cache.by_category[cat] == pytest.approx(v)
        assert via_cache.reg_ops == pytest.approx(direct.reg_ops)
        for (a, n), (b, m) in zip(via_cache.mem_traffic, direct.mem_traffic,
                                  strict=True):
            assert a == b and n == pytest.approx(m)

    def test_repeat_calls_consistent(self):
        bm = get_benchmark("matvec2d")
        env = bm.param_env(16)
        mod = compile_module("matvec2d", list(bm.specs),
                             CompileOptions(gpu=K20))
        a = exact_counts(mod.kernels[0], env, 32, 2)
        b = exact_counts(mod.kernels[0], env, 32, 2)
        assert a.by_category == b.by_category

    def test_memo_stays_bounded_and_refills_bit_for_bit(self, fresh_memos,
                                                        monkeypatch):
        """A full memo is cleared and refilled: it never holds more than
        its limit, and a point counted again after a clear measures the
        same bits."""
        monkeypatch.setattr(counting, "_MEMO_LIMIT", 4)
        bm = get_benchmark("atax")
        cfg = {"TC": 64, "BC": 48, "UIF": 1, "PL": 16, "CFLAGS": ""}
        measurer = Measurer(bm, K20)
        first = _measured_bits(measurer.measure(cfg, 64))
        for size in (32, 64, 128, 256, 512):
            measurer.measure(cfg, size)
            assert len(counting._count_cache) <= 4
        counting._count_cache.clear()
        assert _measured_bits(measurer.measure(cfg, 64)) == first

    def test_threads_missing_together_measure_serial_bits(self,
                                                          fresh_memos):
        """Eight threads, each on its own measurer over the same points
        and switching as often as the interpreter allows, miss the memo
        together and still measure exactly what a serial run does."""
        import sys
        import threading

        points = [({"TC": tc, "BC": 48, "UIF": 1, "PL": 16, "CFLAGS": ""},
                   n) for tc in (32, 256) for n in (32, 64, 128)]
        bm = get_benchmark("ex14fj")

        def run():
            measurer = Measurer(bm, M2050)
            return [_measured_bits(measurer.measure(c, n))
                    for c, n in points]

        serial = run()
        _clear_memos()
        start = threading.Barrier(8)
        results, errors = [], []

        def worker():
            try:
                start.wait()
                results.append(run())
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
        assert results == [serial] * 8


def _measured_bits(m) -> tuple:
    """A measurement's floats as ``float.hex``, with its other fields."""
    return (m.seconds.hex(), m.occupancy.hex(), m.regs_per_thread,
            m.reg_instructions.hex())


def _two_walk_counts(ck, env, threads: int, warp_level: bool) -> dict:
    """Counts at ``threads`` from two tree walks, combined the way the
    count memo does: the categories either walk counted, in declaration
    order, every count ``a + T * (b - a)``."""
    frac = warp_branch_fraction if warp_level else exact_branch_fraction
    at0, at1 = (evaluate_region_tree(ck.root_region, env, total_threads=t,
                                     branch_fraction=frac)
                for t in (0, 1))
    d0, d1 = at0.by_category, at1.by_category

    def at(a, b):
        return a + threads * (b - a)

    return {
        "by_category": [(c, at(d0.get(c, 0.0), d1.get(c, 0.0)))
                        for c in sorted({*d0, *d1}, key=ORDINAL.__getitem__)],
        "reg_ops": at(at0.reg_ops, at1.reg_ops),
        "mem_traffic": [(acc, at(n0, n1)) for (acc, n0), (_, n1)
                        in zip(at0.mem_traffic, at1.mem_traffic)],
    }


def _bits(counts: dict) -> dict:
    """``counts`` with every float as ``float.hex``."""
    def hexed(v):
        return v.hex() if isinstance(v, float) else v

    return {k: [(a, hexed(b)) for a, b in v] if isinstance(v, list)
            else hexed(v) for k, v in counts.items()}


class TestAffineForm:
    """``exact_counts`` reads one memoized form per kernel, env and count
    level; every bit it gives equals the two-walk combination."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_form_matches_two_walks_bit_for_bit(self, name):
        bm = get_benchmark(name)
        for gpu in ALL_GPUS:
            mod = compile_module(name, list(bm.specs),
                                 CompileOptions(gpu=gpu))
            for n, ck, warp_level, (tc, bc) in itertools.product(
                    sorted(bm.sizes)[:2], mod, (False, True),
                    ((1, 0), (1, 1), (32, 24), (1024, 192))):
                env = bm.param_env(n)
                dc = exact_counts(ck, env, tc, bc, warp_level=warp_level)
                got = {
                    "by_category": list(dc.by_category.items()),
                    "reg_ops": dc.reg_ops,
                    "mem_traffic": list(dc.mem_traffic),
                }
                want = _two_walk_counts(ck, env, tc * bc, warp_level)
                assert _bits(got) == _bits(want), (
                    gpu.name, n, ck.name, warp_level, tc, bc)


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty count and branch-fraction memos for one test."""
    monkeypatch.setattr(counting, "_fraction_cache", {})
    monkeypatch.setattr(counting, "_count_cache", {})


def _clear_memos():
    counting._fraction_cache.clear()
    counting._count_cache.clear()


def _branch_fractions(ck, env) -> list:
    """Every branch arm's fraction, in region-tree order."""
    out = []

    def visit(region, loops):
        for child in region.children:
            if child.kind in (RegionKind.THEN, RegionKind.ELSE):
                out.append(exact_branch_fraction(child, env, loops))
                visit(child, loops)
            else:
                visit(child, loops + [child])

    visit(ck.root_region, [])
    return out


def _input_env(bm, n, seed) -> dict:
    inputs = bm.make_inputs(n, rng_for("tests", bm.name, n, seed))
    env = bm.param_env(n)
    env.update({k: v for k, v in inputs.items() if isinstance(v, np.ndarray)})
    return env


class TestFractionMemo:
    def test_one_domain_pass_per_size(self, fresh_memos, monkeypatch):
        """ex14fj's N^3 boundary guard is evaluated once per size, however
        often the kernel is recompiled and counted."""
        passes = []
        evaluate = counting.evaluate_expr_numpy

        def counted(e, env):
            passes.append(e)
            return evaluate(e, env)

        monkeypatch.setattr(counting, "evaluate_expr_numpy", counted)
        bm = get_benchmark("ex14fj")
        for n, expected in ((16, 1), (32, 2)):
            env = bm.param_env(n)
            for gpu in ALL_GPUS:
                for uif in (1, 3):
                    for fast_math in (False, True):
                        mod = compile_module(
                            "ex14fj", list(bm.specs),
                            CompileOptions(gpu=gpu, unroll_factor=uif,
                                           fast_math=fast_math),
                        )
                        for tc, bc in ((64, 4), (256, 2)):
                            for warp_level in (False, True):
                                exact_counts(mod.kernels[0], env, tc, bc,
                                             warp_level=warp_level)
            assert len(passes) == expected, f"N={n}"

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_memo_keeps_counts(self, name, fresh_memos):
        """Counts served from a memo another compile filled equal counts
        computed with both memos empty."""
        bm = get_benchmark(name)
        other = compile_module(name, list(bm.specs), CompileOptions(gpu=M2050))
        mod = compile_module(name, list(bm.specs), CompileOptions(gpu=K20))
        for n in sorted(bm.sizes)[:2]:
            env = bm.param_env(n)
            for warp_level in (False, True):
                for ck in other:
                    exact_counts(ck, env, 64, 3, warp_level=warp_level)
                memo = [exact_counts(ck, env, 64, 3, warp_level=warp_level)
                        for ck in mod]
                _clear_memos()
                fresh = [exact_counts(ck, env, 64, 3, warp_level=warp_level)
                         for ck in mod]
                for a, b in zip(memo, fresh):
                    assert a.by_category == b.by_category
                    assert a.reg_ops == b.reg_ops
                    assert a.mem_traffic == b.mem_traffic

    @pytest.mark.parametrize("name", ["histogram", "compact"])
    def test_bound_arrays_stay_in_the_key(self, name, fresh_memos):
        """Two input seeds bound in ``env`` each get their own fractions,
        equal to a fresh evaluation of that seed alone."""
        bm = get_benchmark(name)
        n = bm.smallest_size
        mod = compile_module(name, list(bm.specs), CompileOptions(gpu=K20))
        envs = [_input_env(bm, n, seed) for seed in (1, 2)]

        def measure(env):
            return [(_branch_fractions(ck, env),
                     exact_counts(ck, env, 64, 2).by_category) for ck in mod]

        memo = [measure(env) for env in envs]
        fresh = []
        for env in envs:
            _clear_memos()
            fresh.append(measure(env))
        assert memo == fresh
        if name == "compact":  # its guard loads the flags
            assert memo[0] != memo[1]

    def test_memo_stays_bounded(self, fresh_memos):
        then = Region(id="t", kind=RegionKind.THEN,
                      cond=VarRef("i").lt(VarRef("K")))
        limit = counting._MEMO_LIMIT
        for k in range(limit + 10):
            f = exact_branch_fraction(then, {"K": k}, [_loop(4)])
            assert f == min(k, 4) / 4
            assert len(counting._fraction_cache) <= limit

    def test_loop_domain_in_the_key(self, fresh_memos):
        then = Region(id="t", kind=RegionKind.THEN,
                      cond=VarRef("i").lt(IntConst(2)))
        assert exact_branch_fraction(then, {}, [_loop(4)]) == 0.5
        assert exact_branch_fraction(then, {}, [_loop(8)]) == 0.25


def _loop(upper: int) -> Region:
    return Region(id="l", kind=RegionKind.PLOOP, loop_var="i",
                  lower=IntConst(0), upper=IntConst(upper))


@pytest.fixture
def metrics():
    obs.enable()
    try:
        yield obs.metrics
    finally:
        obs.disable()


class TestFallbackCounters:
    def test_data_dependent_trips_counted(self, fresh_memos, metrics):
        """spmv_csr's row loop bounds load from ``rowptr``; with scalars
        only, the trip count falls back to the default."""
        bm = get_benchmark("spmv_csr")
        n = bm.smallest_size
        mod = compile_module("spmv_csr", list(bm.specs),
                             CompileOptions(gpu=K20))
        for warp_level in (False, True):
            exact_counts(mod.kernels[0], bm.param_env(n), 64, 2,
                         warp_level=warp_level)
        assert metrics.value("counting.fallbacks", kind="trips") > 0
        assert metrics.value("counting.fallbacks", kind="branch") == 0

        before = metrics.value("counting.fallbacks", kind="trips")
        exact_counts(mod.kernels[0], _input_env(bm, n, 1), 64, 2)
        assert metrics.value("counting.fallbacks", kind="trips") == before

    def test_data_dependent_branch_counted_once_per_key(self, fresh_memos,
                                                        metrics):
        """compact's guard loads ``flags``: with scalars only it falls
        back to 0.5, counted once however often it is recounted."""
        bm = get_benchmark("compact")
        n = bm.smallest_size
        env = bm.param_env(n)
        for gpu in (K20, M2050):
            mod = compile_module("compact", list(bm.specs),
                                 CompileOptions(gpu=gpu))
            for warp_level in (False, True):
                exact_counts(mod.kernels[0], env, 64, 2,
                             warp_level=warp_level)
            assert _branch_fractions(mod.kernels[0], env) == [0.5]
        assert metrics.value("counting.fallbacks", kind="branch") == 1

        exact_counts(mod.kernels[0], _input_env(bm, n, 1), 64, 2)
        assert metrics.value("counting.fallbacks", kind="branch") == 1
