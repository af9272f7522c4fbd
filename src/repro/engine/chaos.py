"""Deterministic chaos injection for the sweep engine.

Following the ``sim.vector.set_fault_hook`` precedent (a test-only hook
that lets the fuzz harness prove it detects injected defects), this
module injects *execution* faults into the engine so the resilience
tests can prove that sweeps under worker kills, shard timeouts, raised
exceptions, and corrupt cache rows still return results byte-identical
to a clean serial run.

A :class:`ChaosSpec` is installed into the environment
(``$REPRO_CHAOS``, JSON), so it reaches pool worker processes under any
``multiprocessing`` start method.  Every fault decision is a pure
function of ``(seed, fault kind, shard item indices, attempt number)``
-- the same spec always kills the same shards on the same attempts,
which is what lets tests assert exact ``SweepStats`` /
:class:`~repro.engine.resilience.ShardFailure` accounting.

Fault kinds, rolled in this order at the top of ``evaluate_shard``:

- **kill**: the worker process exits immediately via ``os._exit``
  (simulating an OOM-kill).  Inline execution (no worker process to
  kill) raises :class:`ChaosError` instead so the retry path is still
  exercised.
- **raise**: raises :class:`ChaosError` from ``evaluate_shard``.
- **delay**: sleeps ``delay_s`` before measuring, driving the shard
  past a supervisor deadline.

Cache-row corruption is a separate, direct injector
(:func:`corrupt_rows`) because it targets the store, not a shard.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from repro import obs
from repro.engine.cache import _AT, _KEY
from repro.util.hashing import stable_hash

ENV_VAR = "REPRO_CHAOS"

KILL_EXIT_CODE = 137
"""Exit code of a chaos-killed worker (mirrors SIGKILL's 128+9)."""

_IN_WORKER = False
"""Set by pool workers so ``kill`` faults know a real process exists."""


class ChaosError(RuntimeError):
    """An injected failure (the ``raise`` fault, or ``kill`` inline)."""


@dataclass(frozen=True)
class ChaosSpec:
    """A seeded fault-injection plan.

    ``attempts`` limits faults to the first N attempts of each shard
    (the default 1 makes every fault recoverable by a single retry);
    ``attempts=-1`` faults *every* attempt -- a poison shard.
    ``only_indices`` restricts faulting to shards containing at least
    one of the given work-item indices, which is how a single item is
    poisoned for the bisection tests.
    """

    seed: int = 0
    kill_rate: float = 0.0
    raise_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.0
    attempts: int = 1
    only_indices: tuple = ()

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "ChaosSpec":
        d = json.loads(blob)
        d["only_indices"] = tuple(d.get("only_indices") or ())
        return cls(**d)


def install(spec: ChaosSpec) -> None:
    """Activate a spec process-wide (and for future worker processes)."""
    os.environ[ENV_VAR] = spec.to_json()


def uninstall() -> None:
    os.environ.pop(ENV_VAR, None)


def active() -> ChaosSpec | None:
    blob = os.environ.get(ENV_VAR)
    return ChaosSpec.from_json(blob) if blob else None


@contextmanager
def injected(spec: ChaosSpec):
    """``with chaos.injected(spec): ...`` -- install, then uninstall."""
    install(spec)
    try:
        yield spec
    finally:
        uninstall()


def mark_worker() -> None:
    """Called by pool worker mains: ``kill`` faults may really exit."""
    global _IN_WORKER
    _IN_WORKER = True


def _roll(spec: ChaosSpec, kind: str, indices, attempt: int) -> float:
    digest = stable_hash((spec.seed, kind, tuple(indices), attempt))
    return int(digest[:12], 16) / float(16 ** 12)


def maybe_inject(indices, attempt: int = 0) -> None:
    """Apply the active spec's fault (if any) for this shard attempt.

    Called at the top of ``evaluate_shard``; a no-op unless a spec is
    installed and this ``(shard, attempt)`` rolls a fault.
    """
    spec = active()
    if spec is None:
        return
    if spec.only_indices and not set(indices) & set(spec.only_indices):
        return
    if spec.attempts >= 0 and attempt >= spec.attempts:
        return
    if spec.kill_rate and _roll(spec, "kill", indices, attempt) < spec.kill_rate:
        # this instant only survives on the inline path: a killed
        # worker's capture buffer dies with it, and the supervisor's
        # fault.worker-died instant covers the timeline instead
        obs.instant(
            "chaos.kill", args={"shard": list(indices), "attempt": attempt}
        )
        if _IN_WORKER:
            os._exit(KILL_EXIT_CODE)
        raise ChaosError(
            f"chaos kill (inline) on shard {tuple(indices)} attempt {attempt}"
        )
    if spec.raise_rate and _roll(spec, "raise", indices, attempt) < spec.raise_rate:
        obs.instant(
            "chaos.raise", args={"shard": list(indices), "attempt": attempt}
        )
        raise ChaosError(
            f"chaos raise on shard {tuple(indices)} attempt {attempt}"
        )
    if spec.delay_rate and _roll(spec, "delay", indices, attempt) < spec.delay_rate:
        obs.instant(
            "chaos.delay",
            args={"shard": list(indices), "attempt": attempt,
                  "delay_s": spec.delay_s},
        )
        time.sleep(spec.delay_s)


def corrupt_rows(store, seed: int = 0, fraction: float = 1.0,
                 limit: int | None = None) -> list:
    """Overwrite the ``seconds`` of a deterministic subset of a store's
    rows with text, returning the corrupted rows' addresses (the
    :func:`~repro.engine.cache.point_key` triples, in address order).

    The engine must treat every corrupted row as a miss -- quarantined
    and re-measured, never a crash (see ``CacheStore``).
    """
    keys = store._conn.execute(
        f"SELECT {_KEY} FROM measurements ORDER BY {_KEY}"
    ).fetchall()
    chosen = [
        k for k in keys
        if int(stable_hash((seed, k))[:12], 16) / float(16 ** 12) < fraction
    ]
    if limit is not None:
        chosen = chosen[:limit]
    store._conn.executemany(
        f"UPDATE measurements SET seconds = ? WHERE {_AT}",
        [("\x00chaos:" + k[2][:8], *k) for k in chosen],
    )
    store._conn.commit()
    return chosen
