"""Scalar-vs-vectorized emulator equivalence.

The vectorized grid-level fast path must be *bit-identical* to the
per-warp reference path: memory state, thread-level and warp-issue
``Counter``s, and every divergence statistic.  The corpus test runs
every registered benchmark on both paths; the targeted tests force the
interesting control shapes (peel + merge at the join, barriers inside
stacked execution, failed atomic-replay speculation, the ``mode``
argument's routing).
"""

import numpy as np
import pytest

from repro.arch import K20
from repro.codegen import dsl
from repro.codegen.compiler import CompileOptions, compile_module
from repro.kernels import BENCHMARKS, get_benchmark
from repro.sim.emulator import (
    EmulationError,
    emulate_kernel,
    emulation_mode,
    run_benchmark_emulated,
)
from repro.sim.memory import DeviceMemory
from repro.sim.vector import has_global_atomics
from repro.util.rng import rng_for

COUNTER_FIELDS = (
    "thread_counts", "warp_issues", "reg_ops", "branch_count",
    "divergent_branches", "partial_issues", "total_issues",
)


def assert_equivalent(scalar, vector, outs_s=None, outs_v=None):
    """Bitwise equality of results (and memory state when given)."""
    res_s, res_v = scalar, vector
    for f in COUNTER_FIELDS:
        assert getattr(res_s, f) == getattr(res_v, f), f
    assert res_s == res_v  # dataclass equality, profile excluded
    if outs_s is not None:
        assert set(outs_s) == set(outs_v)
        for name in outs_s:
            assert outs_s[name].tobytes() == outs_v[name].tobytes(), name


def run_both(module, inputs, tc, bc):
    outs_s, res_s = run_benchmark_emulated(
        module, inputs, tc=tc, bc=bc, mode="scalar"
    )
    outs_v, res_v = run_benchmark_emulated(
        module, inputs, tc=tc, bc=bc, mode="vector"
    )
    return (outs_s, res_s), (outs_v, res_v)


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("size_idx", (0, 1, 2))
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
class TestCorpusEquivalence:
    """Every registered benchmark, emulated at its three smallest sizes
    with two input seeds under its declared launch, must behave
    identically on both paths -- data-dependent members (the irregular
    quartet) change control flow with the inputs, so one size/seed point
    is not representative."""

    def test_bit_identical(self, name, size_idx, seed):
        bm = get_benchmark(name)
        n = bm.sizes[size_idx]
        inputs = bm.make_inputs(
            n, rng_for("tests", "vector", name, n, seed)
        )
        mod = compile_module(name, list(bm.specs), CompileOptions(gpu=K20))
        tc, bc = bm.emu_launch(n)
        (outs_s, res_s), (outs_v, res_v) = run_both(mod, inputs, tc, bc)
        assert_equivalent(res_s, res_v, outs_s, outs_v)
        assert res_s.profile.mode == "scalar"
        assert res_v.profile.mode in ("grid", "scalar")
        if res_v.profile.mode == "grid":
            assert res_v.profile.dispatch_steps < res_s.profile.dispatch_steps


class TestForcedPeel:
    """The PR 3 regression shape: a divergent if *without* an else arm.
    Warps split at the branch, the taken rows peel onto the arm entry,
    and both sides must re-merge at the join exactly once -- the
    join-side atomic fires once per thread on both paths."""

    def _kernel(self):
        N = dsl.sparam("N")
        x, y, z, cnt = dsl.farrays("x", "y", "z", "cnt")
        i = dsl.ivar("i")
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

    def test_peel_and_merge_matches_scalar(self):
        n = 128
        mod = compile_module("onearm", [self._kernel()],
                            CompileOptions(gpu=K20))
        xv = rng_for("tests", "peel").standard_normal(n).astype(np.float32)
        inputs = {"N": n, "x": xv, "y": np.zeros(n, np.float32),
                  "z": np.zeros(n, np.float32),
                  "cnt": np.zeros(1, np.float32)}
        (outs_s, res_s), (outs_v, res_v) = run_both(mod, inputs, 32, 2)
        assert res_v.divergent_branches > 0
        assert res_v.profile.mode == "grid"  # atomics deferred, not peeled
        assert_equivalent(res_s, res_v, outs_s, outs_v)
        assert outs_v["cnt"][0] == n

    def test_intra_warp_divergence_both_arms(self):
        """Even/odd split: every warp diverges, both arms carry work."""
        N = dsl.sparam("N")
        y = dsl.farray("y")
        n = dsl.ivar("n")
        v = dsl.var("v", "f32")
        spec = dsl.kernel("eo", [N, y], [
            dsl.pfor(n, N, [
                dsl.assign("v", dsl.to_f32(n)),
                dsl.when((n % 2).eq(0),
                         [dsl.assign("v", v * 2.0 + 1.0)] * 4,
                         [dsl.assign("v", v * 3.0 - 1.0)] * 4),
                y.store(n, v),
            ]),
        ])
        mod = compile_module("eo", [spec], CompileOptions(gpu=K20))
        inputs = {"N": 96, "y": np.zeros(96, np.float32)}
        (outs_s, res_s), (outs_v, res_v) = run_both(mod, inputs, 64, 2)
        assert res_v.divergent_branches >= 2
        assert res_v.simd_efficiency < 1.0
        assert_equivalent(res_s, res_v, outs_s, outs_v)


class TestBarriers:
    def test_divergent_barrier_raises_on_both_paths(self):
        """A warp-varying guard around bar.sync: some warps of the block
        reach the barrier, others never do.  Both paths must reject it
        with the scalar path's error."""
        N = dsl.sparam("N")
        x, y = dsl.farrays("x", "y")
        i = dsl.ivar("i")
        spec = dsl.kernel(
            "badbar", [N, x, y],
            [
                dsl.pfor(i, N, [
                    dsl.when((i // 32).eq(0), [
                        y.store(i, x[i] + 1.0),
                        dsl.sync(),
                        y.store(i, x[i] + 2.0),
                    ]),
                ]),
            ],
            smem_arrays=(("pad", 1, dsl.DType.F32),),
        )
        mod = compile_module("badbar", [spec], CompileOptions(gpu=K20))
        inputs = {"N": 64, "x": np.ones(64, np.float32),
                  "y": np.zeros(64, np.float32)}
        for mode in ("scalar", "vector"):
            with pytest.raises(EmulationError, match="divergent bar.sync"):
                run_benchmark_emulated(mod, inputs, tc=64, bc=1, mode=mode)


class TestAtomicReplaySpeculation:
    def _kernel(self):
        """Loads the array it atomically reduces into -- the shape the
        deferred-replay speculation must detect and retract."""
        N = dsl.sparam("N")
        x, acc, out = dsl.farrays("x", "acc", "out")
        i = dsl.ivar("i")
        return dsl.kernel(
            "specfail", [N, x, acc, out],
            [
                dsl.pfor(i, N, [
                    acc.atomic_add(0, x[i]),
                    out.store(i, acc[0]),
                ]),
            ],
        )

    def test_falls_back_to_scalar_path(self):
        n = 64
        mod = compile_module("specfail", [self._kernel()],
                            CompileOptions(gpu=K20))
        xv = rng_for("tests", "spec").standard_normal(n).astype(np.float32)

        def inputs():
            return {"N": n, "x": xv.copy(),
                    "acc": np.zeros(1, np.float32),
                    "out": np.zeros(n, np.float32)}

        (outs_s, res_s), _ = run_both(mod, inputs(), 32, 2)
        outs_v, res_v = run_benchmark_emulated(mod, inputs(), tc=32, bc=2,
                                               mode="vector")
        assert res_v.profile.mode == "scalar"  # speculation retracted
        assert_equivalent(res_s, res_v, outs_s, outs_v)

    def test_safe_atomics_stay_stacked(self):
        bm = get_benchmark("dot")
        ck = compile_module("dot", list(bm.specs),
                            CompileOptions(gpu=K20)).kernels[0]
        assert has_global_atomics(ck)
        _outs, res = bm.emulate(mode="vector")
        assert res.profile.mode == "grid"

    def test_shared_atomics_run_scalar(self):
        """red.shared accumulation order cannot be replayed (shared
        memory is read back by design): such kernels must take the
        scalar path, bit-identically."""
        from repro.codegen.ast_nodes import AtomicAdd, Load
        from repro.ptx.isa import DType
        from repro.sim.vector import has_shared_atomics

        N = dsl.sparam("N")
        x, out = dsl.farrays("x", "out")
        i = dsl.ivar("i")
        lane = dsl.ivar("lane")
        spec = dsl.kernel(
            "smematomic", [N, x, out],
            [
                dsl.pfor(i, N, [
                    dsl.assign("lane", i % 64),
                    AtomicAdd("acc", lane % 2, x[i]),
                    dsl.sync(),
                    out.store(i, Load("acc", lane % 2, DType.F32)),
                ]),
            ],
            smem_arrays=(("acc", 2, DType.F32),),
        )
        mod = compile_module("smematomic", [spec], CompileOptions(gpu=K20))
        assert has_shared_atomics(mod.kernels[0])
        xv = rng_for("tests", "smem-atomic").standard_normal(64)
        inputs = {"N": 64, "x": xv.astype(np.float32),
                  "out": np.zeros(64, np.float32)}
        (outs_s, res_s), (outs_v, res_v) = run_both(mod, inputs, 64, 1)
        assert res_v.profile.mode == "scalar"
        assert_equivalent(res_s, res_v, outs_s, outs_v)


class TestRouting:
    def test_mode_argument_selects_the_path(self, matvec_spec):
        from repro.codegen.compiler import compile_kernel

        ck = compile_kernel(matvec_spec, CompileOptions(gpu=K20))

        def run(mode=None):
            memory = DeviceMemory()
            memory.alloc("A", np.ones(16, np.float32))
            memory.alloc("x", np.ones(4, np.float32))
            memory.alloc("y", np.zeros(4, np.float32))
            params = {"N": 4, "A": None, "x": None, "y": None}
            res, _ = emulate_kernel(ck, params, tc=32, bc=1, memory=memory,
                                    mode=mode)
            return res

        assert run().profile.mode == "grid"  # fast path is the default
        assert run("vector").profile.mode == "grid"
        assert run("scalar").profile.mode == "scalar"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown emulator mode"):
            emulation_mode("turbo")

    def test_benchmark_emulate_routes_modes(self):
        bm = get_benchmark("atax")
        outs_v, res_v = bm.emulate()
        assert res_v.profile.mode == "grid"
        outs_s, res_s = bm.emulate(mode="scalar")
        assert res_s.profile.mode == "scalar"
        assert_equivalent(res_s, res_v, outs_s, outs_v)


class TestLaunchProfile:
    def test_width_and_merge(self):
        bm = get_benchmark("gemm")
        _outs, res = bm.emulate(mode="vector")
        prof = res.profile
        assert prof.mode == "grid"
        assert prof.mean_stack_width > 1.0
        assert prof.issue_slots == res.total_issues
        assert prof.wall_seconds > 0
        merged = prof.merged(prof)
        assert merged.issue_slots == 2 * prof.issue_slots
        assert merged.mode == "grid"
