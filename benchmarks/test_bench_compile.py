"""Compile bench: the 224 modules a tune-request mix compiles.

Every registered benchmark x the four GPUs x the ``UIF``/``CFLAGS``
values of its corpus space, each compiled from scratch (unroll, lower,
register allocation, full verification) once per round.  Every
measurement, static suggestion and tune request pays this cost once per
compile key, so the median round divided by 224 is the per-module
compile time.
"""

from repro.arch import ALL_GPUS
from repro.codegen.compiler import CompileOptions, compile_module
from repro.kernels import list_benchmarks
from repro.suite.corpus import corpus_space

MODULES = 224


def _tune_mix_modules() -> list:
    out = []
    for bm in list_benchmarks():
        space = {p.name: p.values for p in corpus_space(bm).parameters}
        for gpu in ALL_GPUS:
            for uif in space["UIF"]:
                for cflags in space["CFLAGS"]:
                    options = CompileOptions(
                        gpu=gpu, unroll_factor=uif,
                        fast_math="-use_fast_math" in cflags,
                    )
                    out.append((bm, options))
    return out


def _compile_all(modules: list) -> list:
    return [compile_module(bm.name, list(bm.specs), options)
            for bm, options in modules]


def test_bench_compile_tune_mix_modules(benchmark):
    modules = _tune_mix_modules()
    assert len(modules) == MODULES
    compiled = benchmark.pedantic(_compile_all, args=(modules,),
                                  rounds=5, iterations=1, warmup_rounds=1)
    assert len(compiled) == MODULES
    assert all(k.regs_per_thread > 0 for m in compiled for k in m)
    benchmark.extra_info["modules"] = MODULES
