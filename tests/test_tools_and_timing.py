"""Tests for the CLI tools and timing-model units."""


import pytest

from repro.arch import K20, P100
from repro.arch.throughput import InstrCategory
from repro.codegen.ast_nodes import IntConst
from repro.codegen.compiler import (
    CompileOptions,
    MeasuredKernel,
    compile_module,
)
from repro.codegen.regions import MemAccess, Region, RegionKind
from repro.kernels import get_benchmark
from repro.ptx.isa import DType, MemSpace
from repro.sim import timing
from repro.sim.timing import (
    LaunchConfig,
    ModelParams,
    TimingModel,
    measure_benchmark,
)
from repro.tools import main as tools_main


class TestToolsCLI:
    def test_analyze(self, capsys):
        assert tools_main(["analyze", "atax", "--arch", "kepler",
                           "--size", "64", "-v"]) == 0
        out = capsys.readouterr().out
        assert "T*" in out and "ptxas" in out and "pipeline" in out

    def test_disasm(self, capsys):
        assert tools_main(["disasm", "matvec2d", "--arch", "fermi"]) == 0
        out = capsys.readouterr().out
        assert ".kernel matvec2d" in out and "red.global.add" in out

    def test_occupancy(self, capsys):
        assert tools_main(["occupancy", "--arch", "kepler",
                           "-t", "256", "-r", "32"]) == 0
        out = capsys.readouterr().out
        assert "occ=" in out and "limits:" in out

    def test_suggest(self, capsys):
        assert tools_main(["suggest", "atax", "--arch", "maxwell"]) == 0
        out = capsys.readouterr().out
        assert "T* range" in out and "toolkit-style" in out

    def test_tune_static(self, capsys):
        assert tools_main(["tune", "atax", "--arch", "kepler",
                           "--size", "64", "--search", "random",
                           "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert "best" in out and "measurements" in out


class TestLaunchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LaunchConfig(0, 24)
        with pytest.raises(ValueError):
            LaunchConfig(32, 0)
        with pytest.raises(ValueError):
            LaunchConfig(128, 48, l1_pref_kb=32)

    def test_total_threads(self):
        assert LaunchConfig(128, 4).total_threads == 512


class TestMemAccessTransactions:
    """What the timing model charges one warp execution of an access in
    32-byte DRAM segments (:func:`repro.sim.timing._access_terms`)."""

    @staticmethod
    def _dram(pattern, stride, dtype=DType.F32, space=MemSpace.GLOBAL,
              seq_stride=1):
        acc = MemAccess(space, dtype, pattern, stride, False,
                        seq_stride=seq_stride)
        return timing._access_terms(acc)[:2]

    def test_coalesced_f32(self):
        # one 128-byte line
        assert self._dram("coalesced", 1) == (timing._SEGMENTS, 4.0)

    def test_coalesced_f64_needs_two_lines_worth(self):
        assert self._dram("coalesced", 1, DType.F64) == (timing._SEGMENTS,
                                                         8.0)

    def test_uniform(self):
        # a fraction of one warp's bytes reaches DRAM through L2
        assert self._dram("uniform", 0) == (timing._L2, 0.0)

    def test_wide_stride_fully_scattered(self):
        assert self._dram("strided", 512, seq_stride=0) == (
            timing._SEGMENTS, 32.0)

    def test_small_stride_partial(self):
        # a row walk: between its ideal 4 segments and one per lane, as
        # the resident working set fits in L1
        assert self._dram("strided", 2) == (timing._REUSE, 4.0)

    def test_shared_single(self):
        assert self._dram("strided", 32, space=MemSpace.SHARED) == (
            timing._NO_DRAM, 0.0)


class TestTimingModelUnits:
    @pytest.fixture(scope="class")
    def atax_mod(self):
        bm = get_benchmark("atax")
        return compile_module("atax", list(bm.specs),
                              CompileOptions(gpu=K20))

    def test_monotone_in_problem_size(self, atax_mod):
        tm = TimingModel(K20)
        launch = LaunchConfig(128, 48)
        ts = [tm.benchmark_time(atax_mod, launch, {"N": n})
              for n in (64, 128, 256, 512)]
        assert ts == sorted(ts)

    def test_breakdown_fields_consistent(self, atax_mod):
        tm = TimingModel(K20)
        kt = tm.kernel_time(atax_mod.kernels[0], LaunchConfig(128, 48),
                            {"N": 256})
        assert kt.cycles >= max(kt.issue_cycles, kt.latency_cycles,
                                kt.mem_cycles)
        assert kt.seconds > kt.cycles * K20.cycle_time_s  # launch overhead
        assert kt.dram_bytes > 0
        assert 0 < kt.occupancy <= 1
        assert kt.waves >= 1

    def test_noise_protocol_fifth_trial(self, atax_mod):
        env = {"N": 128}
        launch = LaunchConfig(128, 48)
        a = measure_benchmark(atax_mod, launch, env)
        b = measure_benchmark(atax_mod, launch, env)
        assert a == b  # seeded: reproducible
        det = TimingModel(K20).benchmark_time(atax_mod, launch, env)
        assert a != det  # but noisy around the deterministic value
        assert abs(a - det) / det < 0.5

    def test_l1_preference_comes_from_the_launch(self, atax_mod):
        """A 48 KB L1 keeps atax's row walk cached longer on Kepler."""
        tm = TimingModel(K20)
        ck, env = atax_mod.kernels[0], {"N": 512}
        t16 = tm.kernel_time(ck, LaunchConfig(256, 48, l1_pref_kb=16), env)
        t48 = tm.kernel_time(ck, LaunchConfig(256, 48, l1_pref_kb=48), env)
        assert t48.dram_bytes < t16.dram_bytes

    def test_custom_params_change_result(self, atax_mod):
        env = {"N": 256}
        launch = LaunchConfig(512, 48)
        base = TimingModel(K20).benchmark_time(atax_mod, launch, env)
        slow = TimingModel(
            K20, ModelParams(launch_overhead_s=1e-3)
        ).benchmark_time(atax_mod, launch, env)
        assert slow > base

    @pytest.mark.parametrize("space", [MemSpace.GLOBAL, MemSpace.SHARED])
    def test_atomics_serialize_in_every_space(self, space):
        """Same-address atomics cost chip-wide cycles and spread-out ones
        issue cycles, whichever memory space they update."""
        def kernel(pattern, atomic):
            loop = Region(id="p", kind=RegionKind.PLOOP, loop_var="i",
                          lower=IntConst(0), upper=IntConst(1 << 16))
            loop.add_instruction(InstrCategory.FP32, 3)
            loop.mem_accesses.append(MemAccess(
                space, DType.F32, pattern, 1, True, is_atomic=atomic))
            root = Region(id="r", kind=RegionKind.ROOT, children=[loop])
            return MeasuredKernel("k", 16, 0, root, None,
                                  CompileOptions(gpu=K20))

        tm, launch = TimingModel(K20), LaunchConfig(128, 48)
        times = {(pattern, atomic): tm.kernel_time(
                     kernel(pattern, atomic), launch, {})
                 for pattern in ("uniform", "strided")
                 for atomic in (False, True)}
        assert (times["uniform", True].mem_cycles
                > times["uniform", False].mem_cycles)
        assert (times["strided", True].issue_cycles
                > times["strided", False].issue_cycles)

    def test_p100_spread_advantage(self):
        """More SMs reward spreading small-M kernels across more blocks."""
        bm = get_benchmark("atax")
        mod = compile_module("atax", list(bm.specs),
                             CompileOptions(gpu=P100))
        tm = TimingModel(P100)
        env = {"N": 512}
        concentrated = tm.benchmark_time(mod, LaunchConfig(512, 48), env)
        spread = tm.benchmark_time(mod, LaunchConfig(64, 48), env)
        assert spread < concentrated
