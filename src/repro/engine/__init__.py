"""Parallel sweep engine with a persistent result cache.

The paper's workload is exhaustive measurement of thousands of code
variants per kernel x GPU x input size.  This package turns that from a
serial, recompute-everything loop into a staged pipeline: enumerate ->
probe cache -> shard -> execute under supervision (checkpointing each
completed shard) -> reassemble in canonical order.  See
:mod:`repro.engine.engine` for the stage-by-stage description,
:mod:`repro.engine.resilience` for the failure model (retry/backoff,
poison-shard bisection, quarantine), and :mod:`repro.engine.chaos` for
the deterministic fault-injection harness that tests it.

Typical use::

    from repro.engine import CacheStore, SweepEngine

    engine = SweepEngine(jobs=4, cache=CacheStore("~/.cache/repro-sweeps"))
    measurements = engine.sweep(benchmark, gpu, space, sizes)

Everything higher in the stack (``Autotuner.tune``/``sweep``, every
search strategy, the service fleet, ``repro.experiments.runner
--jobs/--cache``) measures through :class:`SweepEngine`, on a
:class:`~repro.autotune.measure.Measurer` the caller holds.
"""

from repro.engine.cache import (
    CACHE_SCHEMA_VERSION,
    CacheStore,
    context_key,
    default_cache_dir,
    measurement_key,
    point_key,
    stable_hash,
)
from repro.engine.engine import SweepEngine, SweepStats
from repro.engine.pool import PoolExecutor, evaluate_shard, resolve_jobs
from repro.engine.progress import NULL_PROGRESS, ProgressReporter, StderrProgress
from repro.engine.resilience import (
    DEFAULT_POLICY,
    AttemptRecord,
    ExecutorReport,
    RetryPolicy,
    ShardFailure,
)
from repro.engine.work import (
    WorkItem,
    build_pairs,
    build_work_list,
    compile_key,
    shard_work,
    split_shard,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "AttemptRecord",
    "CacheStore",
    "DEFAULT_POLICY",
    "ExecutorReport",
    "NULL_PROGRESS",
    "PoolExecutor",
    "ProgressReporter",
    "RetryPolicy",
    "ShardFailure",
    "StderrProgress",
    "SweepEngine",
    "SweepStats",
    "WorkItem",
    "build_pairs",
    "build_work_list",
    "compile_key",
    "context_key",
    "default_cache_dir",
    "evaluate_shard",
    "measurement_key",
    "point_key",
    "resolve_jobs",
    "shard_work",
    "split_shard",
    "stable_hash",
]
