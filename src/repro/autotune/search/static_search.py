"""The paper's contribution: the static-analysis search module.

Workflow (paper Sec. III-C): "Orio collects instruction counts for the
CUDA kernel and computes the instruction mix metrics and occupancy rates
... A rule-based model is invoked, which produces suggested parameter
coordinates for Orio to search."

Concretely:

1. compile the kernel for the target GPU (no execution);
2. run the static analyzer: occupancy model -> ``T*`` (the thread counts
   achieving the best attainable occupancy given register/smem usage);
3. optionally apply the intensity rule (Sec. III-C): intensity > 4.0 keeps
   the upper half of ``T*``, otherwise the lower half;
4. restrict the tuning space's ``TC`` axis accordingly and run any inner
   search (exhaustive by default) on the reduced space.

The reduction in (3)-(4) is what Fig. 6 reports: ~87.5% fewer variants
from ``T*`` alone, ~93.8% with the rule.

Steps (1)-(2) depend only on the kernel, the GPU and the problem size,
so the process keeps one report per registered (kernel, GPU, size) in a
bounded memo: a long-lived tuner or server compiles and analyzes each
only once.  Every static search of that key reads the same report, so
``last_report`` is shared and read-only.  A benchmark that is not the
registered one of its name is analyzed on every reset (its name does not
identify its specs; see :func:`~repro.autotune.measure.travels_by_name`).
"""

from __future__ import annotations

import functools

from repro import obs
from repro.arch.specs import GPUSpec
from repro.autotune.measure import travels_by_name
from repro.autotune.search.base import Search, SearchResult
from repro.autotune.search.exhaustive import ExhaustiveSearch
from repro.autotune.space import ParameterSpace
from repro.core.analyzer import AnalysisReport, StaticAnalyzer
from repro.kernels.base import Benchmark

_REPORT_LIMIT = 256
"""Analyzer reports the process keeps: one per registered (kernel, GPU,
size).  The registry's 15 kernels on the 4 GPUs at 3 sizes each are 180
keys."""


def _analyze(benchmark: Benchmark, gpu: GPUSpec, size: int) -> AnalysisReport:
    """Compile ``benchmark`` for ``gpu`` and analyze it at ``size``;
    adds ``analyze.reports``."""
    obs.add("analyze.reports")
    return StaticAnalyzer(gpu).analyze(
        list(benchmark.specs), benchmark.param_env(size),
        name=benchmark.name,
    )


@functools.lru_cache(maxsize=_REPORT_LIMIT)
def _report(name: str, gpu: GPUSpec, size: int) -> AnalysisReport:
    """The process's report on the registered benchmark ``name``.  Two
    threads that miss together both analyze, and one equal report is
    kept."""
    from repro.kernels import get_benchmark

    return _analyze(get_benchmark(name), gpu, size)


class StaticSearch(Search):
    name = "static"

    def __init__(
        self,
        benchmark: Benchmark,
        gpu: GPUSpec,
        size: int,
        use_rule: bool = False,
        inner: Search | None = None,
    ):
        """``use_rule=False`` is the paper's "Static" configuration
        (T* pruning only); ``use_rule=True`` is "RB" (static + the
        intensity-threshold rule)."""
        self.benchmark = benchmark
        self.gpu = gpu
        self.size = size
        self.use_rule = use_rule
        self.inner = inner if inner is not None else ExhaustiveSearch()
        self.last_report: AnalysisReport | None = None
        """The report the last reset pruned with.  Shared with every
        static search of the same registered (kernel, GPU, size): read
        it, never change it."""

    def pruned_space(self, space: ParameterSpace) -> ParameterSpace:
        """Apply the static model to restrict the ``TC`` axis."""
        if travels_by_name(self.benchmark):
            report = _report(self.benchmark.name, self.gpu, self.size)
        else:
            report = _analyze(self.benchmark, self.gpu, self.size)
        self.last_report = report
        allowed = (
            report.rule_threads if self.use_rule else report.suggestion.threads
        )
        try:
            return space.restrict("TC", allowed)
        except ValueError:
            # Corpus members may declare TC axes disjoint from the
            # analyzer's suggestion (e.g. tile-multiple-only spaces).
            # Search the unpruned space rather than crash; the reported
            # space reduction is then honestly zero.
            return space

    # The ask/tell protocol delegates to the inner strategy on the
    # pruned space; the base-class ``search`` driver therefore works
    # unchanged, and the inner search inherits any batch-capable
    # objective (engine sharding, persistent cache).

    def reset(self, space: ParameterSpace, budget: int | None = None) -> None:
        self._full_space = space
        self.inner.reset(self.pruned_space(space), budget)

    def ask(self, k: int | None = None) -> list:
        return self.inner.ask(k)

    def tell(self, configs: list, values: list) -> None:
        self.inner.tell(configs, values)

    @property
    def evaluations(self) -> int:
        return self.inner.evaluations

    @property
    def remaining(self) -> int | None:
        return self.inner.remaining

    @property
    def done(self) -> bool:
        return self.inner.done

    def result(self, full_size: int | None = None) -> SearchResult:
        # report the reduction against the ORIGINAL space
        return self.inner.result(
            full_size=full_size if full_size is not None
            else len(self._full_space)
        )
