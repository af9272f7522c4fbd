"""Compile bench: the 224 modules a tune-request mix compiles.

Every registered benchmark x the four GPUs x the ``UIF``/``CFLAGS``
values of its corpus space, each compiled from scratch (unroll, lower,
register allocation, full verification) once per round, so the median
round divided by 224 is the per-module compile time.

Measurement pays less: the process compiles each (kernel, ``UIF``,
``CFLAGS``, address width) once, and K20, M40 and P100 build their
views from one shared compile with their own register reservation.  So
the 224 views of the second bench cost 112 compiles from cold memos.
"""

from repro.arch import ALL_GPUS
from repro.autotune import Measurer, measure
from repro.autotune.measure import compile_options
from repro.codegen.compiler import compile_module
from repro.kernels import list_benchmarks
from repro.suite.corpus import corpus_space

MODULES = 224
SHARED_COMPILES = 112
"""One per (kernel, ``UIF``, ``CFLAGS``, address width): Fermi compiles
its own, and the three 64-bit GPUs share one."""


def _tune_mix_modules() -> list:
    out = []
    for bm in list_benchmarks():
        space = {p.name: p.values for p in corpus_space(bm).parameters}
        for gpu in ALL_GPUS:
            for uif in space["UIF"]:
                for cflags in space["CFLAGS"]:
                    out.append((bm, gpu, {"UIF": uif, "CFLAGS": cflags}))
    return out


def _compile_all(modules: list) -> list:
    return [compile_module(bm.name, list(bm.specs),
                           compile_options(gpu, config))
            for bm, gpu, config in modules]


def test_bench_compile_tune_mix_modules(benchmark):
    modules = _tune_mix_modules()
    assert len(modules) == MODULES
    compiled = benchmark.pedantic(_compile_all, args=(modules,),
                                  rounds=5, iterations=1, warmup_rounds=1)
    assert len(compiled) == MODULES
    assert all(k.regs_per_thread > 0 for m in compiled for k in m)
    benchmark.extra_info["modules"] = MODULES


def test_bench_tune_mix_views(benchmark, monkeypatch, _fresh_sweep_cache):
    """The same 224 modules as measurement views, each round from cold
    memos through ``Measurer.module_for``."""
    modules = _tune_mix_modules()
    calls = []
    real = measure.compile_module

    def counting(name, specs, options):
        calls.append(options)
        return real(name, specs, options)

    monkeypatch.setattr(measure, "compile_module", counting)

    def cold():
        _fresh_sweep_cache()
        calls.clear()

    def views_of(modules):
        views = [Measurer(bm, gpu).module_for(config)
                 for bm, gpu, config in modules]
        return views, len(calls)

    views, compiles = benchmark.pedantic(
        views_of, args=(modules,), setup=cold,
        rounds=5, iterations=1, warmup_rounds=1,
    )
    assert len(views) == MODULES
    assert compiles == SHARED_COMPILES
    assert all(k.regs_per_thread > 0 for m in views for k in m)
    benchmark.extra_info["modules"] = MODULES
    benchmark.extra_info["compiles"] = compiles
