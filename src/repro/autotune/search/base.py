"""Search strategy interface: the batch ask/tell protocol.

Strategies are *proposal processes*: they never call the objective
themselves.  ``ask(k)`` returns at most ``k`` configurations that need a
fresh evaluation; the caller measures them however it likes -- serially,
through :meth:`~repro.autotune.measure.Measurer.measure_many`, or
sharded across a process pool by the sweep engine -- and reports the
values back with ``tell(configs, values)``.  ``search`` is the bundled
driver running that loop against a plain callable or a batch-capable
objective (one with a ``batch`` attribute, such as
:class:`~repro.autotune.measure.BatchObjective`).

The protocol centralizes the bookkeeping each strategy used to
duplicate -- history, budget accounting, de-duplication of repeated
proposals, best-so-far tracking -- and removes two classes of seed bugs
by construction:

- **budget-exhaustion sentinels**: a strategy whose batch would exceed
  the remaining budget gets the truncated prefix evaluated and is then
  terminated cleanly, instead of being fed uncached ``inf`` values that
  poison selection while its outer loop keeps spinning;
- **all-infeasible spaces**: when every evaluation came back ``inf``
  (nothing launchable), the result reports the first evaluated
  configuration at ``inf`` instead of raising.

Subclasses implement :meth:`_proposals`, a generator yielding batches of
candidate configurations and receiving their objective values::

    def _proposals(self, space, budget):
        values = yield [config, config, ...]   # one batch
        ...
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import obs
from repro.autotune.space import ParameterSpace

Objective = Callable[[dict], float]


def config_key(config: dict) -> tuple:
    """Hashable identity of a configuration (order-insensitive)."""
    return tuple(sorted(config.items()))


@dataclass
class SearchResult:
    """Outcome of one search run."""

    best_config: dict
    best_value: float
    evaluations: int
    space_size: int
    """Size of the space the strategy actually searched (after any
    model-based pruning) -- the quantity Fig. 6 compares."""

    full_space_size: int
    """Size of the original, unpruned space."""

    history: list = field(default_factory=list)
    """(config, value) pairs in evaluation order."""

    @property
    def space_reduction(self) -> float:
        """Fractional search-space reduction (the Fig. 6 'improvement')."""
        if self.full_space_size == 0:
            return 0.0
        return 1.0 - self.space_size / self.full_space_size


class Search:
    """Base class: minimize ``objective`` over a finite space."""

    name = "base"

    reuse_evaluations = True
    """Serve repeated proposals from the evaluation cache instead of
    re-measuring (and re-charging the budget).  Strategies whose budget
    counts *proposals* rather than distinct points -- simulated
    annealing -- turn this off."""

    _MAX_CACHED_ROUNDS = 100_000
    """Backstop against a strategy proposing already-evaluated points
    forever without consuming budget."""

    # -- strategy interface --------------------------------------------------

    def _proposals(self, space: ParameterSpace,
                   budget: int | None) -> Iterator[list]:
        """Yield batches of configurations; receive their values."""
        raise NotImplementedError

    def default_budget(self, space: ParameterSpace) -> int | None:
        """Evaluation limit when no explicit ``budget`` is given."""
        return getattr(self, "budget", None)

    # -- ask/tell ------------------------------------------------------------

    def reset(self, space: ParameterSpace, budget: int | None = None) -> None:
        """Start a fresh run over ``space``; must precede ``ask``."""
        self._space = space
        self._budget = (budget if budget is not None
                        else self.default_budget(space))
        self._gen = self._proposals(space, self._budget)
        self._started = False
        self._reply: list | None = None
        self._wants: list | None = None
        self._fresh: list | None = None
        self._truncated = False
        self._done = False
        self._history: list = []
        self._cache: dict = {}
        self._first_config: dict | None = None
        self._best_config: dict | None = None
        self._best_value = float("inf")

    @property
    def evaluations(self) -> int:
        return len(self._history)

    @property
    def remaining(self) -> int | None:
        """Fresh evaluations left in the budget (``None`` = unlimited)."""
        if self._budget is None:
            return None
        return max(self._budget - len(self._history), 0)

    @property
    def done(self) -> bool:
        return self._done

    def ask(self, k: int | None = None) -> list:
        """The next batch of at most ``k`` configurations to evaluate.

        An empty list means the run is over -- the strategy finished or
        the budget is spent -- so every driver is ``while configs :=
        ask(): ...``.  Every returned configuration must be answered by
        exactly one ``tell``.  ``k=None`` defaults to the remaining
        budget, so manual drivers cannot overrun it by forgetting to
        thread ``remaining`` through.
        """
        remaining = self.remaining
        if k is None:
            k = remaining
        if self._done:
            return []
        if remaining is not None and remaining <= 0:
            self._finish()
            return []
        if self._fresh is not None:
            raise RuntimeError("ask() while a batch is awaiting tell()")
        rounds = 0
        while True:
            if self._wants is None:
                try:
                    if self._started:
                        wants = self._gen.send(self._reply)
                    else:
                        wants = next(self._gen)
                        self._started = True
                except StopIteration:
                    self._finish()
                    return []
                self._reply = None
                self._wants = [dict(c) for c in wants]
            if self.reuse_evaluations:
                fresh, seen = [], set()
                for c in self._wants:
                    key = config_key(c)
                    if key in self._cache or key in seen:
                        continue
                    seen.add(key)
                    fresh.append(c)
            else:
                fresh = list(self._wants)
            if not fresh:
                # everything already measured: answer from the cache and
                # let the strategy propose again, free of budget
                self._reply = [
                    self._cache[config_key(c)] for c in self._wants
                ]
                self._wants = None
                rounds += 1
                if rounds >= self._MAX_CACHED_ROUNDS:
                    self._finish()
                    return []
                continue
            if k is not None and len(fresh) > k:
                if k <= 0:
                    self._finish()
                    return []
                fresh = fresh[:k]
                self._truncated = True
            self._fresh = fresh
            return [dict(c) for c in fresh]

    def tell(self, configs: list, values: list) -> None:
        """Report objective values for the batch ``ask`` returned."""
        if self._fresh is None:
            raise RuntimeError("tell() without a pending ask()")
        if len(configs) != len(values):
            raise ValueError("tell() needs one value per configuration")
        if [config_key(c) for c in configs] != [
            config_key(c) for c in self._fresh
        ]:
            raise ValueError("tell() configs do not match the asked batch")
        for config, value in zip(configs, values):
            self._record(config, float(value))
        self._fresh = None
        if self._truncated:
            # budget ran out mid-batch: terminate the strategy cleanly
            # (the prefix is recorded; the generator is never resumed)
            self._finish()
            return
        if self.reuse_evaluations:
            self._reply = [self._cache[config_key(c)] for c in self._wants]
        else:
            self._reply = [float(v) for v in values]
        self._wants = None

    def result(self, full_size: int | None = None) -> SearchResult:
        """The run's outcome (valid any time after the first ``tell``)."""
        if not self._history:
            raise ValueError(f"{self.name} search evaluated nothing")
        best_config, best_value = self._best_config, self._best_value
        if best_config is None:
            # every variant was unlaunchable: report the first one
            # evaluated at inf rather than crashing
            best_config, best_value = self._first_config, float("inf")
        return SearchResult(
            best_config=dict(best_config),
            best_value=best_value,
            evaluations=len(self._history),
            space_size=len(self._space),
            full_space_size=(full_size if full_size is not None
                             else len(self._space)),
            history=list(self._history),
        )

    # -- the bundled driver --------------------------------------------------

    def search(self, space: ParameterSpace, objective: Objective,
               budget: int | None = None) -> SearchResult:
        """Drive ask/tell against ``objective`` until done or out of
        budget.  Batch-capable objectives (a ``batch`` attribute mapping
        ``list[config] -> list[float]``) evaluate whole batches at once;
        plain callables are applied point by point.  Results are
        identical either way."""
        self.reset(space, budget)
        batch_eval = getattr(objective, "batch", None)
        round_no = 0
        while configs := self.ask():
            # one span per ask/tell round; engine batch spans nest here
            with obs.span("round", key=round_no,
                          args={"strategy": self.name,
                                "batch": len(configs)}):
                if batch_eval is not None:
                    values = batch_eval(configs)
                else:
                    values = [objective(c) for c in configs]
            self.tell(configs, values)
            obs.add("search.rounds", strategy=self.name)
            obs.add("search.evaluations", len(configs),
                    strategy=self.name)
            round_no += 1
        return self.result()

    # -- internals -----------------------------------------------------------

    def _record(self, config: dict, value: float) -> None:
        self._history.append((dict(config), value))
        self._cache[config_key(config)] = value
        if self._first_config is None:
            self._first_config = dict(config)
        if value < self._best_value:
            self._best_config = dict(config)
            self._best_value = value

    def _finish(self) -> None:
        self._done = True
        self._wants = None
        self._fresh = None
        gen = getattr(self, "_gen", None)
        if gen is not None:
            gen.close()
