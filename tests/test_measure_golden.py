"""Measurement output pinned byte for byte.

``tests/fixtures/measure_golden.json`` holds one SHA-256 per registered
benchmark x GPU.  Each hashes the ``repr`` of ``(size, sorted config,
seconds, occupancy, regs_per_thread, reg_instructions)`` over a fixed
grid: the benchmark's two smallest sizes x ``PL`` {16, 48} x the first
and last ``UIF`` of its default space x both of its ``CFLAGS`` x its
first, middle and last ``TC`` x ``BC`` {24, 48}.

Any change to compilation, counting, the timing model or the noise draw
that alters a measured value fails here.  So does a change to the order
in which the timing model sums category counts: the second size and
grid size put enough last bits on the grid to show one.  Categories are
summed in their declaration order, so no measurement follows the
string-hash seed: the digests are taken in fresh processes under
``PYTHONHASHSEED`` 0, 1 and 2, each against the one fixture, and a store
filled under one seed serves another seed the bytes it would measure
cold.  A further subprocess checks that no digest depends on the
interpreter's ``sum()``, nor do two hand-built modules whose sums a
compensated ``sum()`` would round differently.
The fixture is regenerated (only for an intended output change) with::

    PYTHONPATH=src python tests/test_measure_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.arch import ALL_GPUS, K20, M40
from repro.autotune.measure import Measurer
from repro.codegen.ast_nodes import IntConst
from repro.codegen.compiler import CompileOptions, CompiledModule, MeasuredKernel
from repro.codegen.regions import Region, RegionKind
from repro.kernels import get_benchmark, list_benchmarks
from repro.sim.timing import LaunchConfig, TimingModel

FIXTURE = Path(__file__).parent / "fixtures" / "measure_golden.json"

GEMVER_M40 = "0x1.b2fc17bd4bdaep-16"
"""gemver's deterministic seconds on M40 (see :func:`gemver_m40_seconds`)
as left-to-right float sums give them.  Python 3.12's compensated
``sum()`` over the same four kernel times ends in ``...daf``."""


HANDBUILT = {
    "reg_ops": ["0x1.9ac338cca0dc1p-17", "0x1.0000000000000p+53"],
    "sfu": ["0x1.7f55ee369c330p+20", "0x1.0000000000001p+54"],
}
""":func:`handbuilt_measurements` as left-to-right float sums give them.
A compensated ``sum()`` makes ``reg_ops``'s register instructions
``0x1.0000000000001p+53`` and ``sfu``'s seconds ``0x1.7f55ee369c32fp+20``."""


def golden_configs(bm) -> list[dict]:
    """The configurations one benchmark's digest covers."""
    space = bm.default_space().by_name
    uifs = space["UIF"].values
    tcs = space["TC"].values
    return [
        {"TC": tc, "BC": bc, "UIF": uif, "PL": pl, "CFLAGS": cflags}
        for pl in (16, 48)
        for uif in dict.fromkeys((uifs[0], uifs[-1]))
        for cflags in space["CFLAGS"].values
        for tc in (tcs[0], tcs[len(tcs) // 2], tcs[-1])
        for bc in (24, 48)
    ]


def measure_digest(bm, gpu) -> str:
    measurer = Measurer(bm, gpu)
    points = []
    for size in sorted(bm.sizes)[:2]:
        for config in golden_configs(bm):
            m = measurer.measure(config, size)
            points.append((size, sorted(config.items()), m.seconds,
                           m.occupancy, m.regs_per_thread,
                           m.reg_instructions))
    return hashlib.sha256(repr(points).encode()).hexdigest()


def generate() -> dict:
    return {
        f"{bm.name}/{gpu.name}": measure_digest(bm, gpu)
        for bm in list_benchmarks()
        for gpu in ALL_GPUS
    }


def gemver_m40_seconds() -> str:
    """``float.hex`` of gemver's deterministic time on M40 at ``TC`` 32,
    ``BC`` 48, ``UIF`` 1, ``PL`` 16, no ``CFLAGS``, smallest size: a sum
    of four kernel times."""
    bm = get_benchmark("gemver")
    module = Measurer(bm, M40).module_for({"UIF": 1, "CFLAGS": ""})
    env = bm.param_env(bm.smallest_size)
    return TimingModel(M40).benchmark_time(
        module, LaunchConfig(32, 48, 16), env).hex()


def _handbuilt_module(name: str, kernels: list) -> CompiledModule:
    """A K20 module of hand-built kernels, one per list of
    ``(iterations, [(category, register operands), ...])`` parallel
    loops under an empty ROOT: every count is exact and independent of
    the launch."""
    options = CompileOptions(gpu=K20)
    views = []
    for k, loops in enumerate(kernels):
        root = Region(id="r", kind=RegionKind.ROOT)
        for iterations, instructions in loops:
            loop = Region(id="p", kind=RegionKind.PLOOP, loop_var="i",
                          lower=IntConst(0), upper=IntConst(iterations))
            for category, reg_ops in instructions:
                loop.add_instruction(category, reg_ops)
            root.children.append(loop)
        views.append(MeasuredKernel(f"{name}_k{k}", 16, 0, root, None,
                                    options))
    return CompiledModule(name, views, options)


def handbuilt_measurements() -> dict:
    """``float.hex`` of the seconds and register instructions two
    hand-built modules measure at ``TC`` 64, ``BC`` 48, on ``Measurer``'s
    own path.  Each holds a sum whose left-to-right fold rounds away
    exact ties that a compensated ``sum()`` keeps:

    - ``reg_ops``: three kernels with 2**53, 1 and 1 register operands,
      whose total is ``Measurer.measure``'s ``reg_instructions``;
    - ``sfu``: one kernel issuing 2**53 special-function instructions,
      one FP32 add and one move.  Summed in declaration order (FP32,
      SFU, move) its warp counts make ``kernel_time``'s total 2**53, not
      2**53 + 2.  The SFU share of that total sets the warps the kernel
      needs, and 8 resident warps are too few to hide it (``hiding``
      below 1), so the total reaches the issue time and the seconds.
    """
    import dataclasses

    from repro.arch.throughput import InstrCategory as C

    config = {"TC": 64, "BC": 48, "UIF": 1, "PL": 16, "CFLAGS": ""}
    modules = {
        "reg_ops": _handbuilt_module("reg_ops", [
            [(1, [(C.MOVE, ops)])] for ops in (2**53, 1, 1)
        ]),
        "sfu": _handbuilt_module("sfu", [[
            (2**53, [(C.LOG_SIN_COS, 2)]),
            (1, [(C.FP32, 3), (C.MOVE, 2)]),
        ]]),
    }
    out = {}
    for name, module in modules.items():
        bm = dataclasses.replace(get_benchmark("atax"), name=name)
        measurer = Measurer(bm, K20)
        measurer.module_for = lambda config: module
        m = measurer.measure(config, 64)
        out[name] = [m.seconds.hex(), m.reg_instructions.hex()]
    return out


def compensated_sum(iterable, start=0):
    """CPython 3.12's ``sum()`` over floats: Neumaier-compensated, so
    its last bits differ from a left-to-right fold's."""
    import builtins
    import math

    items = list(iterable)
    if not items or not all(type(x) is float for x in items):
        return builtins.sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    if c and math.isfinite(c):
        total += c
    return total


MEASUREMENT_PATH = ("repro.sim.timing", "repro.sim.counting",
                    "repro.codegen.regions", "repro.autotune.measure")
"""The modules every measured float is computed in."""


def patch_sum() -> None:
    """Make :func:`compensated_sum` the ``sum`` of every module on the
    measurement path."""
    import importlib

    for name in MEASUREMENT_PATH:
        importlib.import_module(name).sum = compensated_sum


HASH_SEEDS = ("0", "1", "2")


def run_at_seed(body: str, seed: str = "0"):
    """Run ``body`` in a fresh process with ``PYTHONHASHSEED=seed`` and
    this module imported as ``golden``; return the JSON it prints."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    probe = (f"import json, sys\n"
             f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
             f"import test_measure_golden as golden\n{body}\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout)


def generate_at_seed(seed: str = "0") -> dict:
    """:func:`generate` in a fresh process with ``PYTHONHASHSEED=seed``."""
    return run_at_seed("print(json.dumps(golden.generate()))", seed)


def test_measurements_pinned():
    golden = json.loads(FIXTURE.read_text())
    for seed in HASH_SEEDS:
        digests = generate_at_seed(seed)
        assert digests.keys() == golden.keys()
        for key, digest in digests.items():
            assert digest == golden[key], (seed, key)


def cached_sweep(store: str | None) -> dict:
    """gemm on K20 over the golden grid, through a :class:`SweepEngine`
    on the store in directory ``store`` (no store for None): the sweep's
    hits and its measurements as ``float.hex`` text."""
    from repro.engine import SweepEngine

    bm = get_benchmark("gemm")
    pairs = [(config, size) for size in sorted(bm.sizes)[:2]
             for config in golden_configs(bm)]
    with SweepEngine(jobs=1, cache=store) as engine:
        results = engine.run(Measurer(bm, K20), pairs)
    return {
        "points": len(pairs),
        "hits": engine.last_stats.hits,
        "measurements": [
            [m.size, sorted(m.config.items()), m.seconds.hex(),
             m.occupancy.hex(), m.regs_per_thread, m.reg_instructions.hex()]
            for m in results
        ],
    }


def test_a_store_filled_under_one_hash_seed_serves_another(tmp_path):
    """Under string-hash-ordered category sums, gemm on K20 measures
    other bits under seeds 1 and 2.  A store filled under seed 1 serves
    every point of a seed-2 sweep, with the bytes a cold seed-2 sweep
    measures."""
    store = str(tmp_path)
    sweep = "print(json.dumps(golden.cached_sweep({!r})))"
    filled = run_at_seed(sweep.format(store), "1")
    served = run_at_seed(sweep.format(store), "2")
    cold = run_at_seed(sweep.format(None), "2")
    assert filled["hits"] == 0
    assert served["hits"] == served["points"] == len(served["measurements"])
    assert served["measurements"] == cold["measurements"]
    assert filled["measurements"] == cold["measurements"]


def test_measurements_do_not_depend_on_the_interpreters_sum():
    """Every measured float is a left-to-right fold, so a compensated
    ``sum()`` (Python 3.12 and later) changes no digest, not gemver's
    four-kernel time and not the hand-built modules' sums."""
    golden = json.loads(FIXTURE.read_text())
    doc = run_at_seed(
        "golden.patch_sum()\n"
        "print(json.dumps([golden.gemver_m40_seconds(),\n"
        "                  golden.handbuilt_measurements(),\n"
        "                  golden.generate()]))"
    )
    seconds, handbuilt, digests = doc
    assert seconds == GEMVER_M40
    assert handbuilt == HANDBUILT
    assert digests == golden


def test_static_sums_do_not_depend_on_the_interpreters_sum(monkeypatch):
    """The analyzer's pipeline shares and the suite's ``mix_err`` are
    left-to-right folds too.  Summed by a compensated ``sum()``, the
    shares of bicg, jacobi2d and matvec_smem on K20 at their largest
    sizes move in the last bits, and so does compact's ``mix_err``."""
    import repro.core.pipeline
    import repro.suite.evaluate
    from repro.autotune.space import Parameter, ParameterSpace
    from repro.core.analyzer import StaticAnalyzer
    from repro.suite.corpus import corpus_sizes
    from repro.suite.evaluate import accuracy_row

    compact = get_benchmark("compact")
    point = ParameterSpace([Parameter("TC", (64,)), Parameter("BC", (48,))])

    def outputs() -> list:
        out = []
        for name in ("bicg", "jacobi2d", "matvec_smem"):
            bm = get_benchmark(name)
            report = StaticAnalyzer(K20).analyze(
                list(bm.specs), bm.param_env(bm.sizes[-1]), name=name)
            out.append(repr(report.pipeline))
        row = accuracy_row(compact, K20, point, corpus_sizes(compact, False))
        out.append(repr(row["mix_err"]))
        return out

    folded = outputs()
    for module in (repro.core.pipeline, repro.suite.evaluate):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert outputs() == folded


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_measure_golden.py --write")
    doc = generate_at_seed()
    FIXTURE.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {len(doc)} digests to {FIXTURE}")
