"""Tuning session recording and replay (paper Sec. VII).

"We regard the methodology we have developed as a knowledge discovery
framework where the degree of empirical testing can be 'dialed in' during
the autotuning process ... By recording the decisions and code variants at
each step, it is also possible to replay tuning with empirical testing for
purpose of validation.  In this way, the framework can continually
evaluate the static models and refine their predictive power."

This module implements that loop:

- :class:`SessionRecorder` captures every decision of a tuning run -- the
  static analysis snapshot, the pruned space, every measured variant --
  into a JSON-serializable record;
- :func:`replay_with_empirical_testing` re-runs a recorded session's
  *pruned-away* region empirically and reports what the static model cost:
  the regret of pruning, and whether the analyzer's T* actually contained
  the global optimum;
- :class:`Dial` expresses the static-to-empirical spectrum: fraction 0.0
  trusts the static model completely (search only T*), 1.0 is fully
  empirical (exhaustive), intermediate values add the empirically most
  promising pruned thread counts back into the search.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

from repro.arch.specs import GPUSpec
from repro.autotune.measure import Measurer
from repro.autotune.space import ParameterSpace
from repro.autotune.tuner import Autotuner
from repro.core.suggest import suggest_for_module
from repro.kernels.base import Benchmark


@dataclass
class RecordedVariant:
    config: dict
    size: int
    seconds: float


@dataclass
class SessionRecord:
    """A complete, replayable record of one tuning run."""

    benchmark: str
    gpu: str
    size: int
    space_names: list
    space_values: dict
    suggested_threads: list
    rule_threads: list
    intensity: float
    use_rule: bool
    searched_threads: list
    variants: list = field(default_factory=list)
    best_config: dict | None = None
    best_seconds: float | None = None
    wall_seconds: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)

    @staticmethod
    def from_json(text: str) -> "SessionRecord":
        data = json.loads(text)
        data["variants"] = [RecordedVariant(**v) for v in data["variants"]]
        return SessionRecord(**data)


class SessionRecorder:
    """Runs a static-search tuning session and records every decision."""

    def __init__(self, benchmark: Benchmark, gpu: GPUSpec,
                 space: ParameterSpace | None = None):
        self.benchmark = benchmark
        self.gpu = gpu
        self.tuner = Autotuner(benchmark, gpu, space=space)

    def run(self, size: int, use_rule: bool = False) -> SessionRecord:
        t0 = time.time()
        strategy = self.tuner.make_search("static", use_rule=use_rule,
                                          size=size)
        out = self.tuner.tune(size=size, search=strategy)
        space = self.tuner.space
        return SessionRecord(
            benchmark=self.benchmark.name,
            gpu=self.gpu.name,
            size=size,
            space_names=space.names(),
            space_values={p.name: list(p.values) for p in space.parameters},
            # what the static search pruned the space with
            suggested_threads=list(strategy.suggestion.threads),
            rule_threads=list(strategy.rule_threads),
            intensity=strategy.intensity,
            use_rule=use_rule,
            searched_threads=sorted(
                {m.config["TC"] for m in out.results.measurements}
            ),
            variants=[
                RecordedVariant(m.config, m.size, m.seconds)
                for m in out.results.measurements
            ],
            best_config=out.best_config,
            best_seconds=out.best_seconds,
            wall_seconds=time.time() - t0,
        )


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of empirically validating a recorded session."""

    record_best: float
    pruned_best: float
    """Best time found in the region the static model pruned away."""

    global_best: float
    regret: float
    """(record_best - global_best) / global_best: what pruning cost."""

    t_star_contained_optimum: bool
    pruned_evaluations: int

    def summary(self) -> str:
        verdict = ("contained" if self.t_star_contained_optimum
                   else "MISSED")
        return (
            f"replay: static-pruned best {self.record_best * 1e6:.1f} us, "
            f"global best {self.global_best * 1e6:.1f} us "
            f"(regret {self.regret:+.2%}); T* {verdict} the optimum; "
            f"validating cost {self.pruned_evaluations} extra measurements"
        )


def replay_with_empirical_testing(
    record: SessionRecord,
    benchmark: Benchmark,
    gpu: GPUSpec,
) -> ReplayReport:
    """Measure the pruned-away region and evaluate the static decision."""
    # imported lazily: repro.engine sits on top of repro.autotune
    from repro.autotune.space import Parameter
    from repro.engine import SweepEngine

    searched = set(record.searched_threads)
    # rebuild the recorded space and measure the complement of the TC
    # pruning
    space = ParameterSpace([
        Parameter(n, tuple(record.space_values[n]))
        for n in record.space_names
    ])
    pruned = [(config, record.size) for config in space
              if config["TC"] not in searched]
    with SweepEngine() as engine:
        measured = engine.run(Measurer(benchmark, gpu), pruned)
    pruned_best = min((m.seconds for m in measured), default=float("inf"))
    pruned_evals = len(measured)

    record_best = float(record.best_seconds)
    global_best = min(record_best, pruned_best)
    return ReplayReport(
        record_best=record_best,
        pruned_best=pruned_best,
        global_best=global_best,
        regret=(record_best - global_best) / global_best,
        t_star_contained_optimum=record_best <= pruned_best,
        pruned_evaluations=pruned_evals,
    )


@dataclass(frozen=True)
class Dial:
    """The static <-> empirical spectrum (paper Sec. VII).

    ``empirical_fraction`` selects how much of the pruned thread axis is
    added back for empirical exploration: 0.0 = trust the static model
    (T* only), 1.0 = fully empirical (all thread counts).
    """

    empirical_fraction: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.empirical_fraction <= 1.0):
            raise ValueError("empirical_fraction must be in [0, 1]")

    def thread_counts(self, space: ParameterSpace, t_star) -> tuple:
        """The thread values to search at this dial setting."""
        all_tc = list(space.by_name["TC"].values)
        chosen = [t for t in all_tc if t in set(t_star)]
        pruned = [t for t in all_tc if t not in set(t_star)]
        extra = round(self.empirical_fraction * len(pruned))
        # add back pruned values nearest to the suggested ones first
        def dist(t):
            return min(abs(t - s) for s in t_star)

        chosen += sorted(pruned, key=dist)[:extra]
        return tuple(sorted(chosen))


def tune_with_dial(
    benchmark: Benchmark,
    gpu: GPUSpec,
    size: int,
    dial: Dial,
    space: ParameterSpace | None = None,
):
    """Tune with the requested degree of empirical testing.

    Returns the tuner outcome over the dialed space; at fraction 0 this is
    the paper's static search, at fraction 1 exhaustive search.
    """
    tuner = Autotuner(benchmark, gpu, space=space)
    # T* reads only resource usage, which the measurement view holds
    suggestion = suggest_for_module(Measurer(benchmark, gpu).module_for({}))
    threads = dial.thread_counts(tuner.space, suggestion.threads)
    restricted = tuner.space.restrict("TC", threads)
    sub_tuner = Autotuner(benchmark, gpu, space=restricted,
                          model_params=tuner.model_params)
    return sub_tuner.tune(size=size, search="exhaustive")
