"""Bounded process memos and the one switch that empties them."""

from __future__ import annotations


class Memo(dict):
    """A ``dict`` of at most ``limit`` entries, written only by
    :meth:`put`; ``get`` stays ``dict.get``.  It takes no lock: a dict's
    get, ``setdefault`` and clear are each atomic under the GIL, so two
    threads that miss together both build and either value may stay, and
    a put that races another's check for a full memo can leave it one
    entry over its limit until the next clear."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def put(self, key, value):
        """Clear a full memo, keep an entry already under ``key``, and
        return the value kept."""
        if len(self) >= self.limit:
            self.clear()
        return self.setdefault(key, value)


REGISTRY: list[Memo] = []
"""The module-level memos that :func:`clear_all` empties."""


def register(memo: Memo) -> Memo:
    REGISTRY.append(memo)
    return memo


def clear_all() -> None:
    """Empty every registered memo, so the next tune compiles and counts
    what the same tune does first in a fresh process.  Only this
    process's: pool workers forked before the call keep theirs."""
    for memo in REGISTRY:
        memo.clear()
