"""Compile output pinned byte for byte.

``tests/fixtures/compile_golden.json`` holds, for every registered
benchmark x GPU x ``UIF`` {1, 2, 3} x fast-math {off, on}, three SHA-256
digests per kernel:

- ``compile``: the disassembly, the ptxas log, registers per thread,
  static shared memory, spilled registers and the parallel extent;
- ``regions``: the region tree in walk order (kind, category counts,
  ``reg_ops``, memory accesses, loop var/bounds/step, ``cond``; not the
  region ``id``);
- ``cfg``: the block names and sorted edges of ``build_cfg(ck.ir)``.

Any change to the compiler that alters what it emits fails here.  The
fixture is regenerated (only for an intended output change) with::

    PYTHONPATH=src python tests/test_compile_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch import ALL_GPUS
from repro.codegen.compiler import CompileOptions, compile_module
from repro.kernels import list_benchmarks
from repro.ptx.cfg import build_cfg
from repro.suite.corpus import corpus_space

FIXTURE = Path(__file__).parent / "fixtures" / "compile_golden.json"
UNROLL_FACTORS = (1, 2, 3)


def _sha(doc) -> str:
    text = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def kernel_digests(ck) -> dict:
    """The three digests of one compiled kernel."""
    compiled = [ck.disassembly(), ck.log, ck.regs_per_thread,
                ck.static_smem_bytes, ck.ir.meta["spilled"],
                repr(ck.parallel_extent)]
    regions = [
        [r.kind.value,
         sorted((cat.value, n) for cat, n in r.counts.items()),
         r.reg_ops, [repr(a) for a in r.mem_accesses],
         r.loop_var, repr(r.lower), repr(r.upper), r.step,
         repr(r.cond)]
        for r in ck.root_region.walk()
    ]
    cfg = build_cfg(ck.ir)
    edges = sorted(cfg.edges())
    return {"compile": _sha(compiled), "regions": _sha(regions),
            "cfg": _sha([list(cfg.blocks), edges])}


def module_key(name: str, gpu: str, uif: int, fast_math: bool) -> str:
    return f"{name}/{gpu}/uif{uif}/{'fast' if fast_math else 'precise'}"


def module_digests(bm, gpu, uif: int, fast_math: bool) -> list[dict]:
    options = CompileOptions(gpu=gpu, unroll_factor=uif, fast_math=fast_math)
    module = compile_module(bm.name, list(bm.specs), options)
    return [kernel_digests(ck) for ck in module]


def golden_keys():
    """Every (benchmark, GPU, UIF, fast-math) point the fixture pins."""
    for bm in list_benchmarks():
        for gpu in ALL_GPUS:
            for uif in UNROLL_FACTORS:
                for fast_math in (False, True):
                    yield bm, gpu, uif, fast_math


def tune_mix_keys():
    """The 224 modules a tune-request mix compiles: every benchmark x
    GPU x the ``UIF``/``CFLAGS`` values of its corpus space."""
    for bm in list_benchmarks():
        space = {p.name: p.values for p in corpus_space(bm).parameters}
        for gpu in ALL_GPUS:
            for uif in space["UIF"]:
                for cflags in space["CFLAGS"]:
                    yield bm, gpu, uif, "-use_fast_math" in cflags


def generate() -> dict:
    return {
        module_key(bm.name, gpu.name, uif, fm): module_digests(
            bm, gpu, uif, fm)
        for bm, gpu, uif, fm in golden_keys()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("bm", list_benchmarks(), ids=lambda b: b.name)
def test_compile_output_pinned(bm, golden):
    for gpu in ALL_GPUS:
        for uif in UNROLL_FACTORS:
            for fm in (False, True):
                key = module_key(bm.name, gpu.name, uif, fm)
                assert module_digests(bm, gpu, uif, fm) == golden[key], key


_HASHSEED_PROBE = """
import json, sys
sys.path.insert(0, {tests!r})
from test_compile_golden import module_digests, module_key, tune_mix_keys
print(json.dumps({{module_key(bm.name, g.name, u, fm):
                  module_digests(bm, g, u, fm)
                  for bm, g, u, fm in tune_mix_keys()}}))
"""


def test_compile_output_independent_of_hash_seed(golden):
    """The 224 tune-mix modules compile to the pinned output under three
    string-hash seeds, so no set or dict iteration order leaks in."""
    assert len(list(tune_mix_keys())) == 224
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = _HASHSEED_PROBE.format(tests=str(Path(__file__).parent))
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=300)
        digests = json.loads(out.stdout)
        assert len(digests) == 224
        for key, kernels in digests.items():
            assert kernels == golden[key], (seed, key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_compile_golden.py --write")
    doc = generate()
    FIXTURE.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                          for k, v in doc.items()) + "\n}\n")
    print(f"wrote {len(doc)} modules to {FIXTURE}")
