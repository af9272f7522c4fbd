"""Retry policy, backoff, and failure records for supervised execution.

The sweep engine's unit of fallible work is a *shard* (a list of
:class:`~repro.engine.work.WorkItem` measured together in one worker).
This module defines the policy knobs the supervisor in
:mod:`repro.engine.pool` runs under and the structured records it leaves
behind:

- :class:`RetryPolicy` -- bounded retries with exponential backoff and
  *deterministic* jitter (hash-derived, never ``random``), an optional
  per-shard wall-clock deadline, and the supervisor's poll interval.
- :class:`AttemptRecord` -- one failed attempt of one shard: which
  attempt, how the worker fared (``raised`` / ``timeout`` /
  ``worker-died``), the error text, and the time spent.
- :class:`ShardFailure` -- the quarantine record for a work item that
  exhausted its retry budget even after poison-shard bisection isolated
  it.  A sweep never aborts on one: the item's result slot stays
  ``None`` and the record tells you exactly what happened.
- :class:`BatchError` -- what a batch with a quarantined item raises.
- :class:`ExecutorReport` -- per-run accounting (retries, recoveries,
  quarantines, the full fault event log, and whether the parallel path
  degraded to inline execution).

Everything here is deliberately deterministic: given the same faults,
the same retries happen after the same backoffs, so chaos tests can
assert exact accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cache import stable_hash


def _unit_roll(*parts) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from hashable parts."""
    return int(stable_hash(parts)[:12], 16) / float(16 ** 12)


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats a failing shard.

    ``max_attempts`` bounds tries *per bisection generation*: a shard
    that exhausts it is split in two (isolating a poison item), and each
    half gets a fresh budget; a single item that exhausts it is
    quarantined as a :class:`ShardFailure`.  ``shard_timeout_s`` is the
    per-shard wall-clock deadline (``None`` disables deadlines -- the
    default, since a legitimate cold shard of a full sweep can run
    long).  Backoff before retry ``k`` (1-based) is
    ``min(backoff_max_s, backoff_base_s * backoff_multiplier**(k-1))``
    stretched by a deterministic jitter fraction in ``[0, jitter]``
    derived from the shard's item indices -- no two shards thundering in
    lockstep, yet byte-reproducible.
    """

    max_attempts: int = 3
    shard_timeout_s: float | None = None
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.25
    poll_interval_s: float = 0.02

    def backoff(self, attempt: int, key) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based) of
        the shard identified by ``key``."""
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_multiplier ** (attempt - 1),
        )
        return base * (1.0 + self.jitter * _unit_roll("backoff", key, attempt))


DEFAULT_POLICY = RetryPolicy()


@dataclass(frozen=True)
class AttemptRecord:
    """One failed attempt of one shard."""

    attempt: int
    """0-based attempt number within the shard's bisection generation."""
    fate: str
    """``"raised"`` (exception in ``evaluate_shard``), ``"timeout"``
    (deadline exceeded, worker killed), or ``"worker-died"`` (the worker
    process exited -- OOM-kill, ``os._exit`` -- without reporting)."""
    error: str | None
    elapsed_s: float


@dataclass(frozen=True)
class ShardFailure:
    """A quarantined work item: it failed its retry budget even after
    bisection isolated it from its original shard."""

    indices: tuple
    """Work-item indices quarantined (a single index after bisection)."""
    attempts: tuple
    """:class:`AttemptRecord` history of the final, isolated shard."""
    bisected_from: int
    """Size of the original shard the item was isolated out of."""


class BatchError(RuntimeError):
    """A batch with quarantined items, whose :class:`ShardFailure`
    records ``failures`` holds: no caller goes on from a partial batch."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        super().__init__(
            f"{len(self.failures)} point(s) quarantined after retry "
            f"exhaustion; first: {self.failures[0].attempts[-1].error}"
        )


@dataclass
class ExecutorReport:
    """What one :meth:`PoolExecutor.run` did beyond returning results."""

    retries: int = 0
    """Shard re-submissions after a failure (incl. bisection halves)."""
    recovered: int = 0
    """Shards that ultimately succeeded after at least one failure (or
    after being split out of a failing parent shard)."""
    failures: list = field(default_factory=list)
    """:class:`ShardFailure` quarantine records."""
    events: list = field(default_factory=list)
    """Every observed fault: ``(work-item indices, AttemptRecord)``."""
    degraded: bool = False
    """Whether the parallel path failed entirely and the run fell back
    to inline execution."""
