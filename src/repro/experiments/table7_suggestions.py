"""Table VII: suggested parameters to achieve theoretical occupancy.

Per kernel and architecture: the thread counts ``T*`` the static analyzer
suggests, the register usage and increase potential ``[R_u : R*]``, the
shared-memory headroom ``S*`` (bytes), and the attainable occupancy
``occ*``.  Purely static -- nothing is executed.
"""

from __future__ import annotations

from repro.autotune.measure import Measurer
from repro.core.instruction_mix import static_mix_module
from repro.core.suggest import suggest_for_module
from repro.experiments.common import family_short, resolve_gpus, resolve_kernels
from repro.kernels import get_benchmark
from repro.util.tables import ascii_table


def run(archs=None, kernels=None) -> dict:
    gpus = resolve_gpus(archs)
    names = resolve_kernels(kernels)
    rows = []
    for kernel in names:
        bm = get_benchmark(kernel)
        env = bm.param_env(bm.sizes[-1])
        for gpu in gpus:
            module = Measurer(bm, gpu).module_for({})
            s = suggest_for_module(module)
            rows.append({
                "kernel": kernel,
                "arch": family_short(gpu),
                "threads": list(s.threads),
                "ru": s.regs_used,
                "rstar": s.reg_increase,
                "sstar": s.smem_headroom,
                "occ": s.best_occupancy,
                "intensity": static_mix_module(module, env).intensity,
            })
    return {"rows": rows}


def render(result: dict) -> str:
    return ascii_table(
        ["Kernel", "Arch", "T*", "[Ru : R*]", "S*", "occ*", "Itns"],
        [
            [r["kernel"], r["arch"],
             ", ".join(str(t) for t in r["threads"]),
             f"[{r['ru']} : {r['rstar']}]", r["sstar"], r["occ"],
             r["intensity"]]
            for r in result["rows"]
        ],
        title="Table VII: suggested parameters to achieve theoretical "
              "occupancy",
        align_right=False,
    )
