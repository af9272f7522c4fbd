"""Benchmark harness configuration.

Each ``test_bench_*`` module regenerates one table or figure of the paper
on a reduced, structure-preserving configuration (see
``repro.experiments.common.reduced_space``) and reports the regeneration
time through pytest-benchmark.  Run with::

    pytest benchmarks/ --benchmark-only

The rendered artifact is printed with ``-s`` (or captured in the report).
"""

import pytest

from repro.util.memo import clear_all


@pytest.fixture(autouse=True)
def _fresh_sweep_cache():
    """Benchmarks must measure real work, not a warm sweep cache or the
    process memos an earlier bench filled.  Returns the function that
    empties them, for a bench that times several cold passes."""
    clear_all()
    return clear_all
