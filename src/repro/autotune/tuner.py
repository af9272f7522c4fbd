"""The autotuner facade: the piece of Orio the paper plugs into.  It
measures on the caller's ``engine``, or on a one-process, cacheless
:class:`~repro.engine.engine.SweepEngine` built for the call."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro import obs
from repro.arch.specs import GPUSpec
from repro.autotune.measure import BatchObjective, Measurer
from repro.autotune.results import TuningResults
from repro.autotune.search import (
    Search,
    SearchResult,
    StaticSearch,
    get_search,
)
from repro.autotune.space import ParameterSpace
from repro.kernels.base import Benchmark
from repro.sim.timing import DEFAULT_PARAMS, ModelParams


@dataclass
class TuneOutcome:
    """What one tuning run produced."""

    search: SearchResult
    results: TuningResults

    @property
    def best_config(self) -> dict:
        return self.search.best_config

    @property
    def best_seconds(self) -> float:
        return self.search.best_value


class Autotuner:
    """Tunes one benchmark on one (simulated) GPU.

    >>> from repro.kernels import get_benchmark
    >>> from repro.arch import get_gpu
    >>> tuner = Autotuner(get_benchmark("atax"), get_gpu("kepler"))
    >>> out = tuner.tune(size=64, search="static")   # doctest: +SKIP
    """

    def __init__(
        self,
        benchmark: Benchmark,
        gpu: GPUSpec,
        space: ParameterSpace | None = None,
        model_params: ModelParams = DEFAULT_PARAMS,
    ):
        self.benchmark = benchmark
        self.gpu = gpu
        # a benchmark may declare its own default space (tile-constrained
        # corpus members); everything else inherits the Table III space
        self.space = space if space is not None else benchmark.default_space()
        self.model_params = model_params

    def make_search(self, search, use_rule: bool = False,
                    size: int | None = None, **kwargs) -> Search:
        """Build a strategy; ``"static"`` wires in benchmark/GPU context
        and takes ``inner`` plus the inner strategy's arguments.  An
        argument the strategy does not take raises :class:`TypeError`."""
        if isinstance(search, Search):
            if kwargs:
                raise TypeError(f"a built strategy takes no arguments, "
                                f"got {sorted(kwargs)}")
            return search
        if search == "static":
            if size is None:
                raise ValueError("static search needs the input size")
            inner_name = kwargs.pop("inner", None)
            if inner_name:
                kwargs = {"inner": get_search(inner_name, **kwargs)}
            return StaticSearch(
                self.benchmark, self.gpu, size=size, use_rule=use_rule,
                **kwargs,
            )
        return get_search(search, **kwargs)

    def _engine(self, engine):
        """``engine`` itself, left open for its owner, or a one-process,
        cacheless :class:`~repro.engine.engine.SweepEngine` closed on
        exit."""
        if engine is not None:
            return contextlib.nullcontext(engine)
        # imported lazily: repro.engine sits on top of repro.autotune
        from repro.engine import SweepEngine

        return SweepEngine()

    def tune(
        self,
        size: int,
        search="exhaustive",
        use_rule: bool = False,
        budget: int | None = None,
        engine=None,
        **search_kwargs,
    ) -> TuneOutcome:
        """Run one tuning sweep at one input size.

        Every strategy evaluates through a
        :class:`~repro.autotune.measure.BatchObjective`: the ask/tell
        driver collects each proposal batch (a population, a set of
        annealing chains, a simplex, a block of random samples, the
        whole space) and measures it in one
        :meth:`~repro.engine.engine.SweepEngine.run` on one
        :class:`Measurer`, whose modules compile once per process and
        address width.  A batch with a quarantined point fails the tune
        with :class:`~repro.engine.resilience.BatchError`.
        An ``engine`` with workers or a cache shards those batches
        across processes and serves them from the persistent store;
        results are identical in content and order either way.
        """
        measurer = Measurer(self.benchmark, self.gpu,
                            params=self.model_params)
        results = TuningResults(self.benchmark.name, self.gpu.name)
        strategy = self.make_search(search, use_rule=use_rule, size=size,
                                    **search_kwargs)
        with self._engine(engine) as eng, obs.span(
            "tune",
            key=f"{self.benchmark.name}/{self.gpu.name}/{strategy.name}",
            args={"size": size, "strategy": strategy.name},
        ) as sp:
            objective = BatchObjective(eng, measurer, size, results)
            sr = strategy.search(self.space, objective, budget=budget)
            sp.annotate(evaluations=sr.evaluations,
                        best_value=sr.best_value)
        return TuneOutcome(search=sr, results=results)

    def sweep(self, sizes=None, space: ParameterSpace | None = None,
              engine=None) -> TuningResults:
        """Exhaustively measure the whole space across input sizes,
        pooling measurements (the Fig. 4 / Table V data collection).

        An ``engine`` with workers or a cache shards the sweep across
        processes and backs it with the persistent store; results are
        identical either way in content *and* order.  A quarantined
        point raises :class:`~repro.engine.resilience.BatchError`, so
        the results never hold a missing measurement.
        """
        from repro.engine import BatchError

        sizes = sizes if sizes is not None else self.benchmark.sizes
        space = space if space is not None else self.space
        with self._engine(engine) as eng:
            measurements = eng.sweep(self.benchmark, self.gpu, space, sizes,
                                     params=self.model_params)
        if eng.last_failures:
            raise BatchError(eng.last_failures)
        return TuningResults(self.benchmark.name, self.gpu.name, measurements)
