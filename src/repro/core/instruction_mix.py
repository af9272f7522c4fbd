"""Static instruction-mix metrics (paper Section III-B).

Two views are provided:

- :func:`raw_static_mix`: the literal disassembly counts -- each
  instruction once, the view one gets from ``nvdisasm`` alone.
- :func:`static_mix`: the analyzer's *estimate* of dynamic behaviour,
  scaling static counts with what can be read off the binary statically:
  sequential-loop trip counts from their bound expressions, the
  proportionality of the grid-stride loop to the problem size, and a
  50/50 assumption for data-independent branch arms (the analyzer cannot
  know boundary fractions).  The deliberate crudenesses are exactly the
  sources of the static-vs-dynamic estimation error the paper quantifies
  in Table VI:

  * branch arms are split 50/50, while e.g. ex14FJ's boundary branch is
    strongly skewed toward the interior at large N;
  * the analyzer assumes one parallel-loop iteration per launched thread
    (it does not know the launch configuration), so per-thread preamble
    work -- parameter loads in particular, which are memory instructions --
    is underestimated whenever the tuner launches more threads than there
    are iterations.

*Intensity* (the paper's Table VI column, the input to the Sec. III-C
rule) is the ratio of FLOPS-class operations to memory operations in the
estimated mix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.arch.throughput import PipeClass
from repro.codegen.compiler import CompiledKernel, CompiledModule, MeasuredKernel
from repro.codegen.regions import evaluate_region_tree
from repro.codegen.ast_nodes import evaluate_expr


@dataclass(frozen=True)
class MixReport:
    """Instruction mix of one kernel (or aggregated benchmark)."""

    by_category: dict
    reg_ops: float

    def by_pipe(self) -> dict:
        """Aggregate to the paper's classes: O_fl, O_mem, O_ctrl, O_reg."""
        agg = {p: 0.0 for p in PipeClass}
        for cat, n in self.by_category.items():
            agg[cat.pipe] += n
        agg[PipeClass.REG] += self.reg_ops
        return agg

    @property
    def o_fl(self) -> float:
        return self.by_pipe()[PipeClass.FLOPS]

    @property
    def o_mem(self) -> float:
        return self.by_pipe()[PipeClass.MEM]

    @property
    def o_ctrl(self) -> float:
        return self.by_pipe()[PipeClass.CTRL]

    @property
    def o_reg(self) -> float:
        return self.by_pipe()[PipeClass.REG]

    @property
    def total(self) -> float:
        return float(sum(self.by_category.values()))

    @property
    def intensity(self) -> float:
        """FLOPS-class per memory operation (paper Table VI ``Itns``)."""
        if self.o_mem == 0:
            return float("inf")
        return self.o_fl / self.o_mem

    def fractions(self) -> dict:
        tot = max(self.total, 1.0)
        return {cat: n / tot for cat, n in self.by_category.items()}

    def merged(self, other: "MixReport") -> "MixReport":
        c = Counter(self.by_category)
        c.update(other.by_category)
        return MixReport(dict(c), self.reg_ops + other.reg_ops)


def raw_static_mix(ck: CompiledKernel) -> MixReport:
    """Literal disassembly counts: each static instruction once."""
    return MixReport(
        by_category=dict(ck.ir.static_category_counts()),
        reg_ops=float(ck.ir.static_register_operand_count()),
    )


def static_mix(ck: CompiledKernel | MeasuredKernel, env: dict) -> MixReport:
    """The analyzer's static estimate of the dynamic mix at size ``env``.

    Evaluates the region tree with the *static* assumptions documented in
    the module docstring: default 50/50 branch fractions and one thread per
    parallel-loop iteration.  It reads only the region tree and the
    parallel extent, so a measurement view (:class:`MeasuredKernel`)
    gives the full compile's mix.
    """
    if ck.parallel_extent is not None:
        threads = max(1, int(evaluate_expr(ck.parallel_extent, env)))
    else:
        threads = 1
    dc = evaluate_region_tree(ck.root_region, env, total_threads=threads)
    return MixReport(by_category=dict(dc.by_category), reg_ops=dc.reg_ops)


def static_mix_module(module: CompiledModule, env: dict) -> MixReport:
    """Aggregate static mix across a benchmark's kernels."""
    out: MixReport | None = None
    for ck in module:
        m = static_mix(ck, env)
        out = m if out is None else out.merged(m)
    return out


def intensity(ck_or_module, env: dict) -> float:
    """Computational intensity of a kernel or whole benchmark."""
    if isinstance(ck_or_module, CompiledModule):
        return static_mix_module(ck_or_module, env).intensity
    return static_mix(ck_or_module, env).intensity
