"""Work-list construction and deterministic sharding.

A sweep is a flat, ordered list of :class:`WorkItem` -- one
``(config, size)`` point per item, numbered in the canonical order the
serial sweep would evaluate them (sizes outer, configurations inner).
Sharding groups items by their *compile key* (the compile-time slice of
the configuration: ``UIF`` and ``CFLAGS``; ``PL`` is a launch setting)
so each worker compiles every needed module at most once, one shard per
group.  Results carry their item index, so the engine reassembles the
canonical order regardless of which shard finished first -- parallel
sweeps are byte-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autotune.measure import compile_config_key as compile_key
from repro.autotune.space import ParameterSpace


@dataclass(frozen=True)
class WorkItem:
    """One measurement to perform, at its position in the canonical order."""

    index: int
    config: dict
    size: int


def build_work_list(space: ParameterSpace, sizes) -> list:
    """Enumerate ``sizes x space`` in the canonical serial-sweep order."""
    items = []
    for size in sizes:
        for config in space:
            items.append(WorkItem(len(items), dict(config), int(size)))
    return items


def build_pairs(pairs) -> list:
    """Work list from explicit ``(config, size)`` pairs (search batches)."""
    return [
        WorkItem(i, dict(config), int(size))
        for i, (config, size) in enumerate(pairs)
    ]


def split_shard(shard) -> list:
    """Halve a shard for poison-shard bisection.

    Supervision splits a shard that exhausted its retry budget to
    isolate the offending work item (see
    :mod:`repro.engine.resilience`); both halves are non-empty for any
    input of two or more items, so repeated splitting always terminates
    at single items.
    """
    shard = list(shard)
    mid = len(shard) // 2
    return [shard[:mid], shard[mid:]]


def shard_work(items) -> list:
    """One shard per compile group, largest group first.

    Each shard compiles one module.  The partition (and therefore the
    trace span tree) is a pure function of the work list, independent
    of ``jobs``: the supervisor's scheduler assigns however many shards
    exist to however many workers are available.  Ties in group size
    break by compile key, so the partition is deterministic.
    """
    groups: dict = {}
    for item in items:
        groups.setdefault(compile_key(item.config), []).append(item)
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return [group for _, group in ordered]
