"""The Eq. 6 predictive execution-time model.

    f(N) = cf * O_fl + cm * O_mem + cb * O_ctrl + cr * O_reg      (Eq. 6)

The coefficients are the reciprocal of the number of instructions of each
class that can execute in a cycle (CPI), read from the architecture's
Table II column.  ``f(N)`` predicts *relative* execution cost from the
static mix alone, without running the program; the paper evaluates it by
normalizing both predicted and measured times and reporting the mean
absolute error over the sorted profile (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.specs import GPUSpec
from repro.arch.throughput import PipeClass, throughput_for
from repro.core.instruction_mix import MixReport
from repro.util.stats import mean_absolute_error, normalize


@dataclass(frozen=True)
class Eq6Model:
    """Eq. 6 with per-class CPI coefficients for one architecture."""

    gpu: GPUSpec
    cf: float
    cm: float
    cb: float
    cr: float

    @staticmethod
    def for_gpu(gpu: GPUSpec) -> "Eq6Model":
        tp = throughput_for(gpu)
        return Eq6Model(
            gpu=gpu,
            cf=tp.pipe_cpi(PipeClass.FLOPS),
            cm=tp.pipe_cpi(PipeClass.MEM),
            cb=tp.pipe_cpi(PipeClass.CTRL),
            cr=tp.pipe_cpi(PipeClass.REG),
        )

    def weighted_cost(self, mix: MixReport) -> float:
        """``f(N)``: the CPI-weighted instruction mix ratio (in cycles)."""
        pipes = mix.by_pipe()
        return (
            self.cf * pipes[PipeClass.FLOPS]
            + self.cm * pipes[PipeClass.MEM]
            + self.cb * pipes[PipeClass.CTRL]
            + self.cr * pipes[PipeClass.REG]
        )


def predict_time(mix: MixReport, gpu: GPUSpec) -> float:
    """Predicted relative execution cost of a kernel from its static mix."""
    return Eq6Model.for_gpu(gpu).weighted_cost(mix)


def fit_scale(predicted, observed) -> float:
    """Least-squares scale mapping predicted cost to observed seconds.

    Eq. 6 predicts cost up to a machine constant; a single multiplicative
    factor per (kernel, architecture) grounds it in seconds.  Returned so
    experiments can report absolute as well as normalized errors.
    """
    p = np.asarray(predicted, dtype=float)
    o = np.asarray(observed, dtype=float)
    denom = float(p @ p)
    if denom == 0:
        return 0.0
    return float(p @ o) / denom


def profile_mae(predicted, observed) -> float:
    """The Fig. 5 metric: MAE between min-max-normalized, sorted profiles.

    Both series are normalized to [0, 1] after sorting by the observed
    ordering; the MAE then measures how faithfully the static model
    reproduces the *shape* of the execution-time profile.
    """
    p = np.asarray(predicted, dtype=float)
    o = np.asarray(observed, dtype=float)
    if p.shape != o.shape or p.size == 0:
        raise ValueError("predicted/observed must be equal-length, non-empty")
    order = np.argsort(o, kind="stable")
    return mean_absolute_error(normalize(p[order]), normalize(o[order]))
