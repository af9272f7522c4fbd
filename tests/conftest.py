"""Shared fixtures: GPUs, compiled benchmarks, small input sets."""

from __future__ import annotations

import pytest

from repro.arch import ALL_GPUS, K20, M2050
from repro.codegen import dsl
from repro.codegen.compiler import CompileOptions, compile_module
from repro.kernels import get_benchmark
from repro.util.memo import clear_all
from repro.util.rng import rng_for


@pytest.fixture(params=[g.name for g in ALL_GPUS])
def gpu(request):
    """Parametrized over all four paper GPUs."""
    from repro.arch import GPUS_BY_NAME

    return GPUS_BY_NAME[request.param]


@pytest.fixture(scope="session")
def kepler():
    return K20


@pytest.fixture(scope="session")
def fermi():
    return M2050


def small_size(name: str) -> int:
    return 8 if name == "ex14fj" else 16


@pytest.fixture(scope="session")
def compiled_benchmarks():
    """All four benchmarks compiled for K20 with default options."""
    out = {}
    for name in ("atax", "bicg", "matvec2d", "ex14fj"):
        bm = get_benchmark(name)
        out[name] = compile_module(
            name, list(bm.specs), CompileOptions(gpu=K20)
        )
    return out


@pytest.fixture(scope="session")
def matvec_spec():
    """A simple row-per-thread matvec kernel spec used across tests."""
    N = dsl.sparam("N")
    A, x, y = dsl.farrays("A", "x", "y")
    i, j = dsl.ivars("i", "j")
    s = dsl.var("s", "f32")
    return dsl.kernel(
        "mv",
        params=[N, A, x, y],
        body=[
            dsl.pfor(i, N, [
                dsl.assign("s", dsl.f32(0.0)),
                dsl.sfor(j, N, [dsl.assign("s", s + A[i * N + j] * x[j])]),
                y.store(i, s),
            ]),
        ],
    )


@pytest.fixture
def rng():
    return rng_for("tests")


@pytest.fixture
def cold_module_cache():
    """Empty the registered process memos for one test, so its
    measurers compile and count every module they need, even after other
    tests warmed the memos.  Returns the switch, for a test that times
    several cold passes."""
    clear_all()
    return clear_all


def make_benchmark_run(name: str, n: int | None = None):
    """Inputs + reference for a benchmark at a small size."""
    bm = get_benchmark(name)
    n = n if n is not None else small_size(name)
    inputs = bm.make_inputs(n, rng_for("tests", name, n))
    return bm, n, inputs, bm.reference(inputs)


def reference_sweep(benchmark, gpu, space, sizes) -> list:
    """Every variant at every size, measured without the sweep engine:
    the nested loop on one ``Measurer`` that engine sweeps must
    reproduce byte for byte."""
    from repro.autotune import Measurer

    measurer = Measurer(benchmark, gpu)
    return [measurer.measure(config, n) for n in sizes for config in space]


def row_key(name: str) -> tuple:
    """A store address with ``name`` in its config text's place: the
    store never reads a config from its text, so any text names a row."""
    return ("ctx", 16, name)


def row_numbers(m) -> tuple:
    """What a store serves for the measurement ``m``: its four measured
    numbers, to go with the caller's own config and size."""
    return m.seconds, m.occupancy, m.regs_per_thread, m.reg_instructions


def reference_tune(benchmark, gpu, space, size, search="exhaustive",
                   budget=None, **search_kwargs):
    """Tune without the sweep engine: the plain-callable ask/tell driver
    on one ``Measurer``.  Returns the search result and every
    measurement in evaluation order."""
    from repro.autotune import Autotuner, Measurer

    measurer = Measurer(benchmark, gpu)
    measured = []

    def objective(config):
        measured.append(measurer.measure(config, size))
        return measured[-1].seconds

    strategy = Autotuner(benchmark, gpu, space=space).make_search(
        search, size=size, **search_kwargs
    )
    return strategy.search(space, objective, budget=budget), measured
