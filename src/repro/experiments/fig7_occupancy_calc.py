"""Fig. 7: the occupancy calculator's impact charts.

For the atax kernel (per the paper), render the occupancy achieved across
block sizes for the *current* kernel (its compiled register usage) and the
*potential* optimized version (registers raised by the analyzer's headroom
R*, shared memory raised by S*), mirroring the calculator's "impact of
varying block size / register count / shared memory" panels.
"""

from __future__ import annotations

from repro.autotune.measure import Measurer
from repro.core.occupancy import occupancy_curve
from repro.core.suggest import suggest_for_module
from repro.experiments.common import resolve_gpus
from repro.kernels import get_benchmark
from repro.util.tables import ascii_bar_chart


def run(kernel: str = "atax", archs=("kepler",)) -> dict:
    bm = get_benchmark(kernel)
    panels = {}
    for gpu in resolve_gpus(archs):
        s = suggest_for_module(Measurer(bm, gpu).module_for({}))
        cur = occupancy_curve(gpu, regs_u=s.regs_used, smem_u=0)
        pot = occupancy_curve(
            gpu, regs_u=s.regs_used + s.reg_increase, smem_u=s.smem_headroom
        )
        panels[gpu.name] = {
            "threads": [r.threads_u for r in cur],
            "current": [r.occupancy for r in cur],
            "potential": [r.occupancy for r in pot],
            "regs_used": s.regs_used,
            "reg_increase": s.reg_increase,
            "smem_headroom": s.smem_headroom,
            "t_star": list(s.threads),
            "occ_star": s.best_occupancy,
        }
    return {"kernel": kernel, "panels": panels}


def render(result: dict) -> str:
    out = [f"Fig. 7: occupancy calculator for {result['kernel']!r}: "
           "current (top) vs potential (bottom)"]
    for gpu, p in result["panels"].items():
        out.append(f"\n=== {gpu} ===")
        out.append(
            f"current: R={p['regs_used']} S=0 | potential: "
            f"R={p['regs_used'] + p['reg_increase']} S={p['smem_headroom']} "
            f"| T*={p['t_star']} occ*={p['occ_star']:g}"
        )
        sel = [i for i, t in enumerate(p["threads"]) if t % 64 == 0]
        labels = [f"T={p['threads'][i]:4d}" for i in sel]
        out.append(ascii_bar_chart(
            labels, [p["current"][i] for i in sel], max_value=1.0,
            title="occupancy, current kernel:", fmt="{:.2f}", width=40,
        ))
        out.append(ascii_bar_chart(
            labels, [p["potential"][i] for i in sel], max_value=1.0,
            title="occupancy, potential kernel (R*, S* applied):",
            fmt="{:.2f}", width=40,
        ))
    return "\n".join(out)
