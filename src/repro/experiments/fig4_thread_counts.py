"""Fig. 4: thread counts for Orio exhaustive autotuning, by rank.

For each (kernel, architecture), the exhaustive sweep's variants are split
at the 50th percentile of execution time; the histograms of the thread
counts (``TC``) of each rank group reproduce the paper's Fig. 4 panels:
atax and BiCG concentrate Rank-1 mass at the lower thread ranges,
matVec2D and ex14FJ at the upper ranges.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    exhaustive_sweep,
    resolve_gpus,
    resolve_kernels,
)
from repro.util.tables import ascii_histogram

_BINS = np.arange(0, 1057, 96)


def run(full: bool = False, archs=None, kernels=None) -> dict:
    gpus = resolve_gpus(archs)
    names = resolve_kernels(kernels)
    panels = {}
    for kernel in names:
        for gpu in gpus:
            results = exhaustive_sweep(kernel, gpu, full)
            c1, edges = results.thread_histogram(1, bins=_BINS)
            c2, _ = results.thread_histogram(2, bins=_BINS)
            r1 = [
                float(rv.measurement.config["TC"])
                for rv in results.ranked() if rv.rank == 1
            ]
            r2 = [
                float(rv.measurement.config["TC"])
                for rv in results.ranked() if rv.rank == 2
            ]
            panels[(kernel, gpu.name)] = {
                "rank1_hist": c1.tolist(),
                "rank2_hist": c2.tolist(),
                "edges": edges.tolist(),
                "rank1_median": float(np.median(r1)) if r1 else float("nan"),
                "rank2_median": float(np.median(r2)) if r2 else float("nan"),
            }
    return {"panels": panels, "full": full}


def render(result: dict) -> str:
    out = ["Fig. 4: thread counts for exhaustive autotuning "
           "(rank 1 = good performers)"]
    for (kernel, gpu), panel in result["panels"].items():
        out.append(f"\n=== kernel={kernel}  arch={gpu} ===")
        edges = panel["edges"]
        for rank in (1, 2):
            hist = panel[f"rank{rank}_hist"]
            vals = []
            for c, lo in zip(hist, edges):
                vals.extend([lo + 1] * int(c))
            out.append(
                ascii_histogram(
                    vals or [0], bins=edges, width=36,
                    title=(f"rank {rank} (median TC="
                           f"{panel[f'rank{rank}_median']:.0f})"),
                )
            )
    return "\n".join(out)
