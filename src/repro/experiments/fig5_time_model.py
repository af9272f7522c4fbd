"""Fig. 5: predicting execution time from static instruction mixes.

For every measured variant of the exhaustive sweep, Eq. 6 computes a
predicted relative cost from the variant's *static* mix (which varies with
the compile-time parameters and the input size, but -- being static --
cannot see the launch configuration).  Both series are min-max normalized
over the sweep, sorted by measured time, and compared with the mean
absolute error, per kernel and architecture.
"""

from __future__ import annotations

import numpy as np

from repro.core.instruction_mix import static_mix_module
from repro.core.timing_model import Eq6Model, profile_mae
from repro.experiments.common import (
    exhaustive_sweep,
    resolve_gpus,
    resolve_kernels,
)
from repro.kernels import get_benchmark
from repro.autotune.measure import Measurer
from repro.util.stats import normalize
from repro.util.tables import ascii_table

USES_SHARED_SWEEP = True
"""Drawn from the pooled exhaustive sweep: the runner keeps this
experiment in the coordinating process so measurements are shared."""


def run(full: bool = False, archs=None, kernels=None) -> dict:
    gpus = resolve_gpus(archs)
    names = resolve_kernels(kernels)
    rows = []
    curves = {}
    for kernel in names:
        bm = get_benchmark(kernel)
        for gpu in gpus:
            results = exhaustive_sweep(kernel, gpu, full)
            eq6 = Eq6Model.for_gpu(gpu)
            measurer = Measurer(bm, gpu)
            mix_cache: dict = {}
            predicted, observed = [], []
            for m in results.measurements:
                if not m.launchable:
                    continue
                key = (m.config["UIF"], m.config["CFLAGS"],
                       m.config["PL"], m.size)
                if key not in mix_cache:
                    module = measurer.module_for(m.config)
                    mix = static_mix_module(module, bm.param_env(m.size))
                    mix_cache[key] = eq6.weighted_cost(mix)
                predicted.append(mix_cache[key])
                observed.append(m.seconds)
            mae = profile_mae(predicted, observed)
            rows.append({"kernel": kernel, "arch": gpu.family, "mae": mae,
                         "variants": len(observed)})
            order = np.argsort(observed)
            curves[(kernel, gpu.name)] = {
                "predicted": normalize(np.asarray(predicted)[order]).tolist(),
                "observed": normalize(np.asarray(observed)[order]).tolist(),
            }
    return {"rows": rows, "curves": curves, "full": full}


def render(result: dict) -> str:
    table = ascii_table(
        ["Kernel", "Arch", "MAE", "Variants"],
        [[r["kernel"], r["arch"], r["mae"], r["variants"]]
         for r in result["rows"]],
        title="Fig. 5: MAE of Eq. 6 execution-time estimates "
              "(normalized, sorted profiles)",
    )
    # compact sparkline-style view of one curve pair per kernel
    lines = [table, "", "Profiles (o = observed, p = predicted; "
                        "x = both), 48 sample columns:"]
    for (kernel, gpu), c in result["curves"].items():
        obs = np.asarray(c["observed"])
        pred = np.asarray(c["predicted"])
        idx = np.linspace(0, len(obs) - 1, num=min(48, len(obs))).astype(int)
        row_o = "".join("x" if abs(obs[i] - pred[i]) < 0.08 else "o"
                        for i in idx)
        row_p = "".join(" " if abs(obs[i] - pred[i]) < 0.08 else "p"
                        for i in idx)
        lines.append(f"{kernel:9s}/{gpu:5s} |{row_o}|")
        lines.append(f"{'':15s} |{row_p}|")
    return "\n".join(lines)
