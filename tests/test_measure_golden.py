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
grid size put enough last bits on the grid to show one.  The digests are taken in
a subprocess under ``PYTHONHASHSEED=0``, because that order is a set's
iteration order over :class:`~repro.arch.throughput.InstrCategory`
members, which hash by name: the seconds of ex14fj, gemm, gemver,
jacobi2d, matvec2d and matvec_smem follow the string-hash seed.  A second
subprocess checks that no digest depends on the interpreter's ``sum()``.
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

from repro.arch import ALL_GPUS, M40
from repro.autotune.measure import Measurer
from repro.kernels import get_benchmark, list_benchmarks
from repro.sim.timing import LaunchConfig, TimingModel

FIXTURE = Path(__file__).parent / "fixtures" / "measure_golden.json"

GEMVER_M40 = "0x1.b2fc17bd4bdaep-16"
"""gemver's deterministic seconds on M40 (see :func:`gemver_m40_seconds`)
as left-to-right float sums give them.  Python 3.12's compensated
``sum()`` over the same four kernel times ends in ``...daf``."""


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


def run_at_seed0(body: str):
    """Run ``body`` in a fresh process with ``PYTHONHASHSEED=0`` and this
    module imported as ``golden``; return the JSON it prints."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    probe = (f"import json, sys\n"
             f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
             f"import test_measure_golden as golden\n{body}\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout)


def generate_at_seed0() -> dict:
    """:func:`generate` in a fresh process with ``PYTHONHASHSEED=0``."""
    return run_at_seed0("print(json.dumps(golden.generate()))")


def test_measurements_pinned():
    golden = json.loads(FIXTURE.read_text())
    digests = generate_at_seed0()
    assert digests.keys() == golden.keys()
    for key, digest in digests.items():
        assert digest == golden[key], key


def test_measurements_do_not_depend_on_the_interpreters_sum():
    """Every measured float is a left-to-right fold, so a compensated
    ``sum()`` (Python 3.12 and later) changes no digest and not gemver's
    four-kernel time."""
    golden = json.loads(FIXTURE.read_text())
    doc = run_at_seed0(
        "golden.patch_sum()\n"
        "print(json.dumps([golden.gemver_m40_seconds(), golden.generate()]))"
    )
    seconds, digests = doc
    assert seconds == GEMVER_M40
    assert digests == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_measure_golden.py --write")
    doc = generate_at_seed0()
    FIXTURE.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {len(doc)} digests to {FIXTURE}")
