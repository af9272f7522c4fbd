"""Pipeline utilization (paper Section III-B2).

Each SM's execution pipelines (FP units, load/store units, SFU, control)
are kept busy in proportion to the issue cycles the instruction stream
demands of them.  Utilization of a pipeline is its share of the total
issue-cycle demand: a high value flags the unit that will bottleneck and
be "kept busy often during the execution of the kernel".
"""

from __future__ import annotations

from repro.arch.specs import GPUSpec
from repro.arch.throughput import InstrCategory, throughput_for
from repro.core.instruction_mix import MixReport


def pipeline_utilization(
    mix: MixReport, gpu: GPUSpec
) -> dict[str, float]:
    """Relative issue-cycle demand per pipeline, normalized to sum to 1.

    Categories are grouped onto the hardware units that execute them:
    ``fp`` (floating point), ``int`` (integer/ALU), ``sfu`` (special
    function), ``ldst`` (memory), ``ctrl`` (branch/predicate), ``move``.
    """
    tp = throughput_for(gpu)
    unit_of = {
        InstrCategory.FP32: "fp",
        InstrCategory.FP64: "fp",
        InstrCategory.COMP_MINMAX: "int",
        InstrCategory.SHIFT: "int",
        InstrCategory.CONV32: "int",
        InstrCategory.CONV64: "int",
        InstrCategory.INT_ADD32: "int",
        InstrCategory.LOG_SIN_COS: "sfu",
        InstrCategory.LDST: "ldst",
        InstrCategory.PRED_CTRL: "ctrl",
        InstrCategory.MOVE: "move",
        InstrCategory.REGS: "move",
    }
    cycles: dict[str, float] = {
        u: 0.0 for u in ("fp", "int", "sfu", "ldst", "ctrl", "move")
    }
    for cat, n in mix.by_category.items():
        cycles[unit_of[cat]] += n * tp.cpi(cat)
    total = 0.0  # a left fold: from Python 3.12, sum() is compensated
    for c in cycles.values():
        total += c
    if total <= 0:
        return cycles
    return {u: c / total for u, c in cycles.items()}


def bottleneck_pipeline(mix: MixReport, gpu: GPUSpec) -> str:
    """The pipeline with the highest utilization share."""
    util = pipeline_utilization(mix, gpu)
    return max(util, key=util.get)
