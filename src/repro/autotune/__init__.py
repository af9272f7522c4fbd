"""Orio-like annotation-based autotuning framework.

Mirrors the workflow the paper integrates with (Sec. II-C, III-C, IV-A):

- :mod:`repro.autotune.spec` parses ``PerfTuning`` annotations in the
  Fig. 3 syntax into a :class:`~repro.autotune.space.ParameterSpace`;
- :mod:`repro.autotune.space` enumerates a parameter space, such as the
  Table III feature space (``TC x BC x UIF x PL x CFLAGS`` = 5,120
  variants, :func:`~repro.autotune.spec.default_tuning_spec`);
- :mod:`repro.autotune.measure` generates, compiles and "runs" each code
  variant on the simulated GPU with the paper's measurement protocol
  (ten repetitions, fifth trial);
- :mod:`repro.autotune.results` ranks variants and splits them at the
  50th percentile (Rank 1 = good performers / Rank 2 = poor performers);
- :mod:`repro.autotune.search` provides the search strategies the paper
  lists -- exhaustive, random, simulated annealing, genetic, Nelder-Mead
  simplex -- plus the paper's contribution: the **static search module**
  that prunes the thread axis with the analyzer's ``T*`` (and, optionally,
  the intensity rule) before searching;
- :mod:`repro.autotune.tuner` is the user-facing facade.
"""

from repro.autotune.spec import parse_perf_tuning, default_tuning_spec
from repro.autotune.space import ParameterSpace, Parameter
from repro.autotune.measure import Measurer, VariantMeasurement
from repro.autotune.results import TuningResults, RankedVariant, rank_split
from repro.autotune.search import (
    SearchResult,
    ExhaustiveSearch,
    RandomSearch,
    SimulatedAnnealingSearch,
    GeneticSearch,
    NelderMeadSearch,
    StaticSearch,
    get_search,
    SEARCH_REGISTRY,
)
from repro.autotune.tuner import Autotuner

__all__ = [
    "parse_perf_tuning",
    "default_tuning_spec",
    "ParameterSpace",
    "Parameter",
    "Measurer",
    "VariantMeasurement",
    "TuningResults",
    "RankedVariant",
    "rank_split",
    "SearchResult",
    "ExhaustiveSearch",
    "RandomSearch",
    "SimulatedAnnealingSearch",
    "GeneticSearch",
    "NelderMeadSearch",
    "StaticSearch",
    "get_search",
    "SEARCH_REGISTRY",
    "Autotuner",
]
