"""Table VI: error rates when estimating dynamic mixes from static mixes.

For each kernel and architecture (the paper reports Fermi, Kepler and
Maxwell), the static analyzer's mix estimate is compared against the
ground-truth dynamic counts at every input size.  The error per class
(FLOPS / MEM / CTRL) is the sum over the input sizes of the squared
relative error of the class fraction:

    err_c = sum_N ((static_frac_c(N) - dyn_frac_c(N)) / dyn_frac_c(N))^2

The final column is the computational intensity from the static mix (the
value the Sec. III-C rule thresholds at 4.0).
"""

from __future__ import annotations

from repro.arch.throughput import PipeClass
from repro.autotune.measure import Measurer
from repro.experiments.common import family_short, resolve_gpus, resolve_kernels
from repro.kernels import get_benchmark
from repro.suite.evaluate import BASELINE_TC, mix_error_by_class
from repro.util.tables import ascii_table


def run(archs=("fermi", "kepler", "maxwell"), kernels=None,
        full: bool = False) -> dict:
    gpus = resolve_gpus(archs)
    names = resolve_kernels(kernels)
    rows = []
    for kernel in names:
        bm = get_benchmark(kernel)
        sizes = bm.sizes if full else bm.sizes[::2]
        for gpu in gpus:
            module = Measurer(bm, gpu).module_for({})
            errs, itns = mix_error_by_class(module, bm.param_env, sizes)
            rows.append({
                "kernel": kernel,
                "arch": family_short(gpu),
                "flops": errs[PipeClass.FLOPS],
                "mem": errs[PipeClass.MEM],
                "ctrl": errs[PipeClass.CTRL],
                "intensity": itns,
            })
    return {"rows": rows, "baseline_tc": BASELINE_TC}


def render(result: dict) -> str:
    return ascii_table(
        ["Kernel", "Arch", "FLOPS", "MEM", "CTRL", "Itns"],
        [[r["kernel"], r["arch"], r["flops"], r["mem"], r["ctrl"],
          r["intensity"]] for r in result["rows"]],
        title=("Table VI: error when estimating dynamic mixes from static "
               f"mixes (sum of squares over sizes; dynamic baseline "
               f"TC={result['baseline_tc']}, BC=ceil(M/TC))"),
    )
