"""Fig. 1: the branch divergence problem and the performance loss incurred.

A synthetic kernel splits each warp across ``P`` different branch paths
(path selected by ``n % P``).  Under SIMT execution the warp serializes
every path its lanes touch, so useful-lane efficiency drops toward ``1/P``
and issued instructions grow accordingly.  The experiment runs the warp
emulator for P in {1, 2, 4, 8, 16, 32} and reports measured SIMD
efficiency, issue inflation, and the static analyzer's prediction for the
same kernels.
"""

from __future__ import annotations

from repro.arch.specs import K20
from repro.codegen import dsl
from repro.codegen.compiler import CompileOptions, compile_kernel
from repro.core.divergence import analyze_divergence
from repro.sim.emulator import emulate_kernel
from repro.sim.memory import DeviceMemory
from repro.util.rng import rng_for
from repro.util.tables import ascii_bar_chart, ascii_table

import numpy as np


def build_divergent_kernel(paths: int):
    """A kernel whose warp splits into ``paths`` serialized branch arms.

    The arms form an if/else-if chain (a switch over ``n % paths``), so
    each thread executes exactly one arm and lanes of a warp fan out
    across all ``paths`` of them.  Under SIMT execution with immediate-
    post-dominator reconvergence the warp serializes every arm its lanes
    touch -- issue counts grow toward ``paths``-fold while useful-lane
    efficiency collapses.
    """
    N = dsl.sparam("N")
    x = dsl.farray("x")
    out = dsl.farray("out")
    n = dsl.ivar("n")
    acc = dsl.var("acc", "f32")

    def heavy(k: int):
        # enough work per arm to defeat if-conversion: a small fma chain
        e = acc
        for c in range(4):
            e = e * dsl.f32(1.0001 + k * 0.1 + c) + dsl.f32(0.5 + c)
        return [dsl.assign("acc", e)]

    def chain_from(k: int):
        if k == paths - 1:
            return heavy(k)
        return [dsl.when((n % paths).eq(k), heavy(k), chain_from(k + 1))]

    body = [dsl.assign("acc", x[n])]
    body.extend(heavy(0) if paths == 1 else chain_from(0))
    body.append(out.store(n, acc))

    return dsl.kernel(
        f"divergent_p{paths}",
        params=[N, x, out],
        body=[dsl.pfor(n, N, body)],
    )


def run(n: int = 2048, tc: int = 128, bc: int = 4,
        path_counts=(1, 2, 4, 8, 16, 32)) -> dict:
    rng = rng_for("fig1")
    rows = []
    base_issues = None
    emu_mode = "scalar"
    for paths in path_counts:
        spec = build_divergent_kernel(paths)
        ck = compile_kernel(spec, CompileOptions(gpu=K20))
        memory = DeviceMemory()
        memory.alloc("x", rng.standard_normal(n).astype(np.float32))
        memory.alloc("out", np.zeros(n, dtype=np.float32))
        res, _ = emulate_kernel(ck, {"N": n, "x": None, "out": None},
                                tc=tc, bc=bc, memory=memory)
        static = analyze_divergence(ck)
        if res.profile is not None:
            emu_mode = res.profile.mode
        issues = res.total_issues
        if base_issues is None:
            base_issues = issues
        rows.append({
            "paths": paths,
            "simd_efficiency": res.simd_efficiency,
            "issue_inflation": issues / base_issues,
            "divergent_branches": res.divergent_branches,
            "static_divergent": static.divergent_branches,
            "static_efficiency": static.expected_efficiency,
        })
    return {"n": n, "tc": tc, "bc": bc, "rows": rows, "emu_mode": emu_mode}


def render(result: dict) -> str:
    table = ascii_table(
        ["Paths/warp", "SIMD eff (measured)", "Issue inflation",
         "Divergent branches", "Static branches", "SIMD eff (static)"],
        [
            [r["paths"], r["simd_efficiency"], r["issue_inflation"],
             r["divergent_branches"], r["static_divergent"],
             r["static_efficiency"]]
            for r in result["rows"]
        ],
        title=(
            "Fig. 1: branch divergence performance loss "
            f"(N={result['n']}, TC={result['tc']}, BC={result['bc']}, "
            f"emulated on the {result.get('emu_mode', 'scalar')} path)"
        ),
    )
    chart = ascii_bar_chart(
        [f"P={r['paths']:2d}" for r in result["rows"]],
        [r["issue_inflation"] for r in result["rows"]],
        title="\nRelative issued instructions (1.0 = no divergence):",
        fmt="{:.2f}x",
    )
    return table + "\n" + chart
