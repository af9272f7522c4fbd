"""Table V: statistics for autotuned kernels by rank group.

Occupancy (mean / std / mode, in percent), dynamic register-instruction
traffic (mean / std), allocated registers per thread, and the 25th/50th/
75th percentiles of the thread counts -- for good performers (Rank 1, top
half) and poor performers (Rank 2, bottom half), per kernel and
architecture generation.
"""

from __future__ import annotations

from repro.experiments.common import (
    exhaustive_sweep,
    family_short,
    resolve_gpus,
    resolve_kernels,
)
from repro.util.tables import ascii_table


def run(full: bool = False, archs=None, kernels=None) -> dict:
    gpus = resolve_gpus(archs)
    names = resolve_kernels(kernels)
    rows = {1: [], 2: []}
    for rank in (1, 2):
        for kernel in names:
            for gpu in gpus:
                results = exhaustive_sweep(kernel, gpu, full)
                st = results.rank_statistics(rank)
                rows[rank].append({
                    "kernel": kernel,
                    "arch": family_short(gpu),
                    **st,
                })
    return {"rank1": rows[1], "rank2": rows[2], "full": full}


def _table(rows, title):
    return ascii_table(
        ["Kernel", "Arch", "Occ mean", "Occ std", "Occ mode",
         "RegInstr mean", "RegInstr std", "Regs alloc",
         "Thr 25th", "Thr 50th", "Thr 75th"],
        [
            [r["kernel"], r["arch"], r["occ_mean"], r["occ_std"],
             r["occ_mode"], r["reg_mean"], r["reg_std"],
             r["regs_allocated"], r["threads_p25"], r["threads_p50"],
             r["threads_p75"]]
            for r in rows
        ],
        title=title,
    )


def render(result: dict) -> str:
    return (
        _table(result["rank1"],
               "Table V (top half): Rank 1 -- good performers")
        + "\n\n"
        + _table(result["rank2"],
                 "Table V (bottom half): Rank 2 -- poor performers")
    )
