"""Measurement output pinned byte for byte.

``tests/fixtures/measure_golden.json`` holds one SHA-256 per registered
benchmark x GPU.  Each hashes the ``repr`` of ``(sorted config, seconds,
occupancy, regs_per_thread, reg_instructions)`` over a fixed grid:
``PL`` {16, 48} x the first and last ``UIF`` of the benchmark's default
space x both of its ``CFLAGS`` x its first, middle and last ``TC``, all
at ``BC`` 48 and the benchmark's smallest size.

Any change to compilation, counting, the timing model or the noise draw
that alters a measured value fails here.  The digests are taken in a
subprocess under ``PYTHONHASHSEED=0``: the seconds of ex14fj and jacobi2d
still follow the string-hash seed, because category sums iterate a set.
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

from repro.arch import ALL_GPUS
from repro.autotune.measure import Measurer
from repro.kernels import list_benchmarks

FIXTURE = Path(__file__).parent / "fixtures" / "measure_golden.json"
BC = 48


def golden_configs(bm) -> list[dict]:
    """The configurations one benchmark's digest covers."""
    space = bm.default_space().by_name
    uifs = space["UIF"].values
    tcs = space["TC"].values
    return [
        {"TC": tc, "BC": BC, "UIF": uif, "PL": pl, "CFLAGS": cflags}
        for pl in (16, 48)
        for uif in dict.fromkeys((uifs[0], uifs[-1]))
        for cflags in space["CFLAGS"].values
        for tc in (tcs[0], tcs[len(tcs) // 2], tcs[-1])
    ]


def measure_digest(bm, gpu) -> str:
    measurer = Measurer(bm, gpu)
    points = []
    for config in golden_configs(bm):
        m = measurer.measure(config, bm.smallest_size)
        points.append((sorted(config.items()), m.seconds, m.occupancy,
                       m.regs_per_thread, m.reg_instructions))
    return hashlib.sha256(repr(points).encode()).hexdigest()


def generate() -> dict:
    return {
        f"{bm.name}/{gpu.name}": measure_digest(bm, gpu)
        for bm in list_benchmarks()
        for gpu in ALL_GPUS
    }


_PROBE = """
import json, sys
sys.path.insert(0, {tests!r})
from test_measure_golden import generate
print(json.dumps(generate()))
"""


def generate_at_seed0() -> dict:
    """:func:`generate` in a fresh process with ``PYTHONHASHSEED=0``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    probe = _PROBE.format(tests=str(Path(__file__).resolve().parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout)


def test_measurements_pinned():
    golden = json.loads(FIXTURE.read_text())
    digests = generate_at_seed0()
    assert digests.keys() == golden.keys()
    for key, digest in digests.items():
        assert digest == golden[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_measure_golden.py --write")
    doc = generate_at_seed0()
    FIXTURE.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {len(doc)} digests to {FIXTURE}")
