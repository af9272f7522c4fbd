"""The StaticAnalyzer facade (the paper's tool).

Mirrors the workflow of Section III: compile the kernel (``nvcc``
equivalent), read the resource report and disassembly, and produce every
static metric -- occupancy, instruction mixes, intensity, pipeline
utilization, divergence, Eq. 6 predicted cost, and the Table VII parameter
suggestions with the Sec. III-C rule applied.  **No kernel is executed.**
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.codegen.compiler import (
    CompiledModule,
    CompileOptions,
    compile_module,
)
from repro.core.divergence import analyze_divergence
from repro.core.instruction_mix import MixReport, static_mix_module
from repro.core.pipeline import bottleneck_pipeline, pipeline_utilization
from repro.core.rules import INTENSITY_THRESHOLD, rule_based_threads
from repro.core.suggest import Suggestion, suggest_for_module
from repro.core.timing_model import Eq6Model


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the static analyzer can say about one benchmark."""

    benchmark: str
    gpu: GPUSpec
    regs_per_thread: int
    static_smem: int
    mix: MixReport
    intensity: float
    pipeline: dict
    bottleneck: str
    predicted_cost: float
    """Eq. 6 weighted mix ratio (relative cost, cycles-flavoured)."""

    suggestion: Suggestion
    rule_threads: tuple
    """T* after the intensity rule (the static+RB search range)."""

    divergence: tuple
    compile_log: str

    @property
    def compute_bound(self) -> bool:
        return self.intensity > INTENSITY_THRESHOLD

    def summary(self) -> str:
        lines = [
            f"Static analysis of {self.benchmark!r} on {self.gpu.short()}",
            f"  registers/thread : {self.regs_per_thread}"
            f"  (+{self.suggestion.reg_increase} headroom)",
            f"  static smem      : {self.static_smem} B"
            f"  (S* = {self.suggestion.smem_headroom} B headroom)",
            f"  intensity        : {self.intensity:.2f} "
            f"({'compute' if self.compute_bound else 'memory'}-leaning, "
            f"threshold {INTENSITY_THRESHOLD})",
            f"  bottleneck pipe  : {self.bottleneck}",
            f"  Eq.6 cost        : {self.predicted_cost:.1f}",
            f"  occ*             : {self.suggestion.best_occupancy:g}",
            f"  T*               : {list(self.suggestion.threads)}",
            f"  T* (rule-based)  : {list(self.rule_threads)}",
        ]
        for d in self.divergence:
            if d.divergent_branches:
                lines.append(
                    f"  divergence       : {d.kernel}: "
                    f"{d.divergent_branches} divergent branch(es), "
                    f"expected SIMD efficiency {d.expected_efficiency:.2f}"
                )
        return "\n".join(lines)


class StaticAnalyzer:
    """The paper's static analyzer tool for one target GPU."""

    def __init__(self, gpu: GPUSpec):
        self.gpu = gpu
        self.eq6 = Eq6Model.for_gpu(gpu)

    def analyze_module(
        self, module: CompiledModule, env: dict
    ) -> AnalysisReport:
        """Analyze an already-compiled benchmark at problem size ``env``."""
        mix = static_mix_module(module, env)
        suggestion = suggest_for_module(module)
        itns = mix.intensity
        return AnalysisReport(
            benchmark=module.name,
            gpu=self.gpu,
            regs_per_thread=module.regs_per_thread,
            static_smem=module.static_smem_bytes,
            mix=mix,
            intensity=itns,
            pipeline=pipeline_utilization(mix, self.gpu),
            bottleneck=bottleneck_pipeline(mix, self.gpu),
            predicted_cost=self.eq6.weighted_cost(mix),
            suggestion=suggestion,
            rule_threads=rule_based_threads(suggestion.threads, itns),
            divergence=tuple(analyze_divergence(ck) for ck in module),
            compile_log=module.log(),
        )

    def analyze(
        self,
        specs,
        env: dict,
        name: str = "kernel",
        unroll_factor: int = 1,
        fast_math: bool = False,
    ) -> AnalysisReport:
        """Compile kernel spec(s) for this GPU, then analyze statically."""
        if not isinstance(specs, (list, tuple)):
            specs = [specs]
        options = CompileOptions(
            gpu=self.gpu, unroll_factor=unroll_factor, fast_math=fast_math
        )
        module = compile_module(name, list(specs), options)
        return self.analyze_module(module, env)
