"""The paper's contribution: the static-analysis search module.

Workflow (paper Sec. III-C): "Orio collects instruction counts for the
CUDA kernel and computes the instruction mix metrics and occupancy rates
... A rule-based model is invoked, which produces suggested parameter
coordinates for Orio to search."

Concretely:

1. compile the kernel for the target GPU (no execution);
2. read its resource usage: occupancy model -> ``T*`` (the thread counts
   achieving the best attainable occupancy given register/smem usage);
3. optionally apply the intensity rule (Sec. III-C): intensity > 4.0 keeps
   the upper half of ``T*``, otherwise the lower half;
4. restrict the tuning space's ``TC`` axis accordingly and run any inner
   search (exhaustive by default) on the reduced space.

The reduction in (3)-(4) is what Fig. 6 reports: ~87.5% fewer variants
from ``T*`` alone, ~93.8% with the rule.

Steps (2)-(3) read only the module's registers and shared memory (for
``T*``) and its region trees and parallel extents (for the static mix
behind the intensity), and a measurement view holds all of them.  So
step (1) is the measurer's own compile: the search prunes from the view
a :class:`~repro.autotune.measure.Measurer` holds at the default compile
key (``UIF`` 1, no fast-math), the module
:meth:`~repro.core.analyzer.StaticAnalyzer.analyze` compiles.  The view
comes from the process's module cache, registered benchmark or not, so
the search compiles nothing its measurements do not.
"""

from __future__ import annotations

from repro.arch.specs import GPUSpec
from repro.autotune.measure import Measurer
from repro.autotune.search.base import Search, SearchResult
from repro.autotune.search.exhaustive import ExhaustiveSearch
from repro.autotune.space import ParameterSpace
from repro.core.instruction_mix import static_mix_module
from repro.core.rules import rule_based_threads
from repro.core.suggest import Suggestion, suggest_for_module
from repro.kernels.base import Benchmark


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
        # what the last reset pruned with
        self.suggestion: Suggestion | None = None
        self.intensity: float | None = None
        self.rule_threads: tuple | None = None

    def pruned_space(self, space: ParameterSpace) -> ParameterSpace:
        """Apply the static model to restrict the ``TC`` axis."""
        module = Measurer(self.benchmark, self.gpu).module_for({})
        self.suggestion = suggest_for_module(module)
        self.intensity = static_mix_module(
            module, self.benchmark.param_env(self.size)
        ).intensity
        self.rule_threads = rule_based_threads(
            self.suggestion.threads, self.intensity
        )
        allowed = (
            self.rule_threads if self.use_rule else self.suggestion.threads
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
