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
its result is memoized by structure (:data:`_fraction_cache`).  Counts
are affine in the launched thread count, so two walks per (region tree,
env, count level) become one :class:`~repro.codegen.regions.CountForm`
(:data:`_count_cache`), which every kernel over that tree in the process
reads at any launch without walking or building anything else.  That is
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

import numpy as np

from repro import obs
from repro.codegen.ast_nodes import evaluate_expr, evaluate_expr_numpy
from repro.codegen.compiler import CompiledKernel
from repro.codegen.regions import (
    CountForm,
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

_count_cache: dict = {}
"""Memo: (id of a region tree, env, warp_level) -> (tree, CountForm).

Counts are affine in the launched thread count T (only the ROOT region
scales with T; the parallel loop executes a fixed M iterations), so two
tree walks per tree, env and count level determine every launch
configuration: :func:`_affine` turns them into one
:class:`~repro.codegen.regions.CountForm`, and each launch reads it at
its own T.  A form depends on nothing but the tree, so every kernel over
one tree reads it: each measurer in the process, and the GPUs whose
views share a tree (``autotune.measure._trees``).  ``Region`` is an
``eq=True`` dataclass and unhashable, so the key holds the tree's id and
the entry the tree itself, which keeps the id from being reused while
the entry lives.  The branch-domain passes behind the walks come from
:data:`_fraction_cache`.  Holds at most :data:`_MEMO_LIMIT` entries.
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


def _affine(at0: DynamicCounts, at1: DynamicCounts) -> CountForm:
    """The form of walks at T = 0 and T = 1: counts(T) = at0 + T * (at1 - at0),
    over the categories either walk counted, in declaration order."""
    # a walk's form has zero slope: its base is its counts
    a, b = at0.form.base, at1.form.base
    return CountForm(
        tuple(sorted({*at0.form.order, *at1.form.order})),
        a,
        tuple(y - x for x, y in zip(a, b)),
        at0.form.accesses,
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
    """Exact dynamic counts for launching ``ck`` with (tc, bc) on ``env``:
    the memoized form of (``ck``'s region tree, ``env``, ``warp_level``)
    at ``T = tc * bc``, its counts computed when read.  A memo miss adds
    ``counting.forms``.

    With ``warp_level=True`` branch arms use warp-issue multiplicities
    (divergence makes warps pay for both arms); category totals then
    represent thread-slots issued, i.e. ``counts / 32`` is the warp-issue
    count.
    """
    root = ck.root_region
    key = (id(root), _env_key(env), warp_level)
    entry = _count_cache.get(key)
    if entry is None:
        # two threads that miss together build equal forms; either may stay
        frac = warp_branch_fraction if warp_level else exact_branch_fraction
        at0 = evaluate_region_tree(
            root, env, total_threads=0, branch_fraction=frac
        )
        at1 = evaluate_region_tree(
            root, env, total_threads=1, branch_fraction=frac
        )
        entry = (root, _affine(at0, at1))
        _memo_put(_count_cache, key, entry)
        obs.add("counting.forms")
    return DynamicCounts(entry[1], tc * bc)
