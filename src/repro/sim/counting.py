"""Closed-form exact dynamic instruction counts.

Evaluates a compiled kernel's region tree with *exact* multiplicities:

- grid-stride parallel loops execute each iteration exactly once across the
  grid;
- sequential loop trip counts come from their bound expressions;
- branch fractions are computed by evaluating the branch condition,
  vectorized with NumPy, over the full iteration domain of the enclosing
  loops (e.g. the ex14FJ boundary predicate over all N^3 points).

The results agree with the warp emulator (asserted in tests).  The region
tree walk's cost does not depend on problem size; the branch-domain pass
is O(domain) and runs once per (guard, domain, env) per process, because
its result is memoized by structure (:data:`_fraction_cache`).  That is
what lets the timing model stand in for 5,120-variant empirical sweeps.

Data-dependent control flow (CSR row extents, skewed histogram keys,
compaction guards) is supported *input-aware*: bind the concrete input
arrays in ``env`` alongside the scalar parameters and branch conditions /
loop bounds that load from them evaluate exactly (vectorized gathers).
Without the arrays, branch fractions fall back to the static 0.5
assumption and data-dependent trip counts to
:data:`repro.codegen.regions.DATA_DEP_TRIPS_DEFAULT` -- the same
degradation story the paper's static analyzer lives with.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro import obs
from repro.codegen.ast_nodes import evaluate_expr, evaluate_expr_numpy
from repro.codegen.compiler import CompiledKernel
from repro.codegen.regions import (
    DynamicCounts,
    Region,
    RegionKind,
    evaluate_region_tree,
)

#: evaluate branch domains in chunks of this many points to bound memory
_CHUNK = 1 << 20

#: entries a memo holds before it is cleared and refilled
_MEMO_LIMIT = 4096


def _memo_put(memo: dict, key, value) -> None:
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value


def _domain_axes(loop_stack: list, env: dict) -> list[np.ndarray]:
    axes = []
    for region in loop_stack:
        lo = int(evaluate_expr(region.lower, env))
        hi = int(evaluate_expr(region.upper, env))
        axes.append(np.arange(lo, hi, region.step, dtype=np.int64))
    return axes


def exact_branch_fraction(region: Region, env: dict, loop_stack: list) -> float:
    """Exact execution fraction of one branch arm over its loop domain.

    For a THEN region this is the probability that the condition holds;
    for an ELSE region, its complement.  Conditions whose data is absent
    from ``env`` (data-dependent branches without the input arrays bound)
    fall back to the static 0.5 assumption, counted once per memo entry
    as ``counting.fallbacks{kind=branch}``.
    """
    key = (
        region.cond,
        tuple((r.loop_var, r.lower, r.upper, r.step) for r in loop_stack),
        _env_key(env),
    )
    f = _fraction_cache.get(key)
    if f is None:
        try:
            f = _cond_fraction(region, env, loop_stack)
        except (KeyError, TypeError):
            # the same key always raises the same error, so the fallback
            # is memoized (and counted) like any other fraction
            f = 0.5
            obs.add("counting.fallbacks", kind="branch")
        _memo_put(_fraction_cache, key, f)
    if region.kind is RegionKind.ELSE:
        return 1.0 - f
    return f


def _cond_fraction(region: Region, env: dict, loop_stack: list) -> float:
    """Exact probability that ``region.cond`` holds over its loop domain."""
    if region.cond is None:
        raise ValueError(f"region {region.id} has no branch condition")
    axes = _domain_axes(loop_stack, env)
    if not axes:
        # condition over parameters only: 0 or 1
        return 1.0 if bool(evaluate_expr(region.cond, env)) else 0.0
    total = int(np.prod([a.size for a in axes]))
    if total == 0:
        return 0.0

    names = [r.loop_var for r in loop_stack]
    taken = 0
    # iterate over the outer axes' cartesian product in chunks of the
    # innermost axis (inner domains are the large ones in our kernels)
    if len(axes) == 1:
        arr = axes[0]
        for start in range(0, arr.size, _CHUNK):
            chunk = arr[start:start + _CHUNK]
            bind = dict(env)
            bind[names[0]] = chunk
            taken += int(np.count_nonzero(
                evaluate_expr_numpy(region.cond, bind)
            ))
    else:
        import itertools

        outer = itertools.product(*[a.tolist() for a in axes[:-1]])
        inner = axes[-1]
        for combo in outer:
            bind = dict(env)
            for nm, v in zip(names[:-1], combo):
                bind[nm] = np.int64(v)
            bind[names[-1]] = inner
            res = evaluate_expr_numpy(region.cond, bind)
            taken += int(np.count_nonzero(res))
    return taken / total


def warp_branch_fraction(region: Region, env: dict, loop_stack: list) -> float:
    """Fraction of *warps* that execute a branch arm.

    A warp issues an arm's instructions if any of its 32 lanes takes it, so
    the warp-level multiplicity is ``min(1, 32 f)`` of the arm's own
    thread-level fraction in the well-mixed case -- the serialization
    overhead divergence costs (paper Fig. 1).
    """
    f = exact_branch_fraction(region, env, loop_stack)
    return min(1.0, 32.0 * f)


_fraction_cache: dict = {}
"""Memo: (condition, enclosing loop domain, env) -> THEN probability.

Keyed by structure, not by module: :class:`~repro.codegen.ast_nodes.Expr`
nodes are frozen dataclasses, so a guard compiled again (another GPU,
``UIF`` or ``CFLAGS``) hits the same entry.  One O(domain) NumPy
pass (e.g. ex14FJ's boundary predicate over all N^3 points) therefore
serves both arms, both count levels, T=0 and T=1, and every recompile.
Input arrays bound in ``env`` are part of the key by content.  Holds at
most :data:`_MEMO_LIMIT` entries.
"""

_count_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
"""Memo: kernel object -> {(env, warp_level): (eval@T=0, eval@T=1)}.

Counts are affine in the launched thread count T (only the ROOT region
scales with T; the parallel loop executes a fixed M iterations), so two
tree walks per kernel, env and count level determine every launch
configuration; the branch-domain passes behind them come from
:data:`_fraction_cache`.  Keyed by identity, so a kernel's entry dies
with the kernel object: a ``Measurer``'s own
:class:`~repro.codegen.compiler.MeasuredKernel` views die with it, even
though the region trees they share stay in the process's module cache.
Holds at most :data:`_MEMO_LIMIT` envs per kernel.
"""


def _env_key(env: dict) -> tuple:
    parts = []
    for k in sorted(env):
        v = env[k]
        if isinstance(v, np.ndarray):
            parts.append((k, v.dtype.str, v.shape, hash(v.tobytes())))
        else:
            parts.append((k, float(v)))
    return tuple(parts)


def _combine(at0: DynamicCounts, at1: DynamicCounts,
             threads: int) -> DynamicCounts:
    """Affine reconstruction: counts(T) = at0 + T * (at1 - at0)."""
    cats = set(at0.by_category) | set(at1.by_category)
    by_cat = {}
    for c in cats:
        a = at0.by_category.get(c, 0.0)
        b = at1.by_category.get(c, 0.0)
        by_cat[c] = a + threads * (b - a)
    traffic = tuple(
        (acc0, n0 + threads * (n1 - n0))
        for (acc0, n0), (_acc1, n1) in zip(at0.mem_traffic, at1.mem_traffic)
    )
    return DynamicCounts(
        by_category=by_cat,
        reg_ops=at0.reg_ops + threads * (at1.reg_ops - at0.reg_ops),
        mem_transactions=at0.mem_transactions
        + threads * (at1.mem_transactions - at0.mem_transactions),
        dram_bytes=at0.dram_bytes
        + threads * (at1.dram_bytes - at0.dram_bytes),
        total_threads=threads,
        mem_traffic=traffic,
    )


def validate_against_emulation(counts, emulated) -> dict:
    """Per-category relative deviation of closed-form counts from an
    emulator ground truth.

    ``counts`` is a :class:`DynamicCounts` (or a summed mapping of
    category -> count) from :func:`exact_counts`; ``emulated`` an
    :class:`~repro.sim.emulator.EmulationResult` from the same launch.
    With the vectorized fast path this comparison is cheap enough to run
    routinely (the ``suite`` experiment reports its maximum per member),
    turning the counting model's back-validation from a test-only
    assertion into a standing output.

    Returns ``{category: |emulated - exact| / max(exact, 1)}`` over the
    union of categories either side counted.
    """
    by_cat = getattr(counts, "by_category", counts)
    out = {}
    for cat in set(by_cat) | set(emulated.thread_counts):
        exact = float(by_cat.get(cat, 0.0))
        emu = float(emulated.thread_counts.get(cat, 0))
        out[cat] = abs(emu - exact) / max(exact, 1.0)
    return out


def exact_counts(
    ck: CompiledKernel,
    env: dict,
    tc: int,
    bc: int,
    warp_level: bool = False,
) -> DynamicCounts:
    """Exact dynamic counts for launching ``ck`` with (tc, bc) on ``env``.

    With ``warp_level=True`` branch arms use warp-issue multiplicities
    (divergence makes warps pay for both arms); category totals then
    represent thread-slots issued, i.e. ``counts / 32`` is the warp-issue
    count.
    """
    frac = warp_branch_fraction if warp_level else exact_branch_fraction
    memo = _count_cache.setdefault(ck, {})
    key = (_env_key(env), warp_level)
    cached = memo.get(key)
    if cached is None:
        at0 = evaluate_region_tree(
            ck.root_region, env, total_threads=0, branch_fraction=frac
        )
        at1 = evaluate_region_tree(
            ck.root_region, env, total_threads=1, branch_fraction=frac
        )
        cached = (at0, at1)
        _memo_put(memo, key, cached)
    return _combine(*cached, tc * bc)
