"""Region tree: the bridge between static code and dynamic behaviour.

Lowering annotates every emitted instruction with the *region* it belongs
to: the kernel preamble (ROOT), the grid-stride parallel loop (PLOOP),
sequential loops (SLOOP), or branch arms (THEN/ELSE).  A region records the
Table II category counts of its direct instructions, register-operand
traffic, and the memory accesses it performs.

Execution counts then follow from region semantics:

- ROOT executes once per launched thread (``TC * BC``);
- a PLOOP's body executes exactly once per loop iteration across the whole
  grid (grid-stride mapping), i.e. ``upper - lower`` times in total;
- a SLOOP's body executes ``trips`` times per entry of its parent;
- branch arms execute a *fraction* of their parent's count -- exact when the
  caller can evaluate the condition over the iteration domain
  (:mod:`repro.sim.counting`), or the analyzer's 0.5 assumption for the
  paper's static estimate.

This split is precisely the paper's static/dynamic distinction: the static
analyzer sees the same region tree but must guess multiplicities, which is
where the Table VI estimation error comes from.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.arch.throughput import InstrCategory, PipeClass
from repro.codegen.ast_nodes import Expr, evaluate_expr
from repro.ptx.isa import DType, MemSpace


class RegionKind(enum.Enum):
    ROOT = "root"
    PLOOP = "parallel-loop"
    SLOOP = "sequential-loop"
    THEN = "then"
    ELSE = "else"


@dataclass(frozen=True)
class MemAccess:
    """One static memory instruction with its access pattern.

    ``pattern`` is one of ``"coalesced"`` (adjacent threads touch adjacent
    elements), ``"uniform"`` (all threads of a warp touch the same element),
    or ``"strided"`` (thread-dependent with element stride ``stride``).

    ``seq_stride`` is the element stride with respect to the innermost
    enclosing *sequential* loop variable: 1 means consecutive iterations of
    one thread walk consecutive elements, so a fetched cache line serves
    several iterations *if it survives in cache* -- the occupancy-dependent
    cache-thrash effect the timing model charges for.
    """

    space: MemSpace
    dtype: DType
    pattern: str
    stride: int
    is_store: bool
    seq_stride: int = 0
    is_atomic: bool = False


@dataclass
class Region:
    """A node of the region tree."""

    id: str
    kind: RegionKind
    counts: Counter = field(default_factory=Counter)
    reg_ops: int = 0
    mem_accesses: list = field(default_factory=list)
    children: list = field(default_factory=list)
    # loop metadata (PLOOP / SLOOP)
    loop_var: str | None = None
    lower: Expr | None = None
    upper: Expr | None = None
    step: int = 1
    # branch metadata (THEN / ELSE)
    cond: Expr | None = None

    def add_instruction(self, category: InstrCategory, reg_ops: int) -> None:
        self.counts[category] += 1
        self.reg_ops += reg_ops

    def iterations(self, env: dict[str, float]) -> int:
        """Total iterations of a loop region given parameter bindings."""
        if self.kind not in (RegionKind.PLOOP, RegionKind.SLOOP):
            raise ValueError(f"region {self.id} is not a loop")
        lo = int(evaluate_expr(self.lower, env))
        hi = int(evaluate_expr(self.upper, env))
        if hi <= lo:
            return 0
        return -(-(hi - lo) // self.step)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


_CATEGORIES = tuple(InstrCategory)

ORDINAL = {cat: i for i, cat in enumerate(_CATEGORIES)}
"""Each :class:`InstrCategory`'s index in a :class:`CountForm` vector:
its declaration ordinal."""

REG_OPS = len(_CATEGORIES)
"""Vector index of register-operand traffic."""

ACCESSES = REG_OPS + 1
"""Vector index of the first memory access's thread executions."""


class CountForm:
    """Dynamic counts as affine functions of the launched thread count.

    At ``T`` threads every count is ``base[i] + T * slope[i]``.  Both
    vectors hold one entry per :class:`InstrCategory` (indexed by
    :data:`ORDINAL`), then register-operand traffic, then from
    :data:`ACCESSES` on the thread executions of each access in
    ``accesses``.  ``order`` holds the ordinals of the categories
    counted, ascending: :class:`InstrCategory` declaration order, which
    every sum over categories runs in, so no sum follows the string-hash
    seed.  The entries of other categories are 0.
    """

    __slots__ = ("order", "base", "slope", "accesses")

    def __init__(self, order: tuple, base: tuple, slope: tuple,
                 accesses: tuple):
        self.order = order
        self.base = base
        self.slope = slope
        self.accesses = accesses


class DynamicCounts:
    """Evaluated dynamic instruction counts for one launch: a
    :class:`CountForm` at ``total_threads``, each count computed when
    read.

    ``by_category`` maps Table II categories to execution counts;
    ``reg_ops`` is total register-operand traffic (the paper's ``Regs``
    metric / O_reg); ``mem_traffic`` is a tuple of ``(MemAccess, thread
    executions)`` pairs, which the timing model charges DRAM traffic for
    through its own per-access terms and cache model.
    """

    __slots__ = ("form", "total_threads")

    def __init__(self, form: CountForm, total_threads: int):
        self.form = form
        self.total_threads = total_threads

    def _at(self, i: int) -> float:
        return self.form.base[i] + self.total_threads * self.form.slope[i]

    @property
    def by_category(self) -> dict:
        base, slope = self.form.base, self.form.slope
        t = self.total_threads
        return {_CATEGORIES[i]: base[i] + t * slope[i]
                for i in self.form.order}

    @property
    def reg_ops(self) -> float:
        return self._at(REG_OPS)

    @property
    def mem_traffic(self) -> tuple:
        return tuple((acc, self._at(i))
                     for i, acc in enumerate(self.form.accesses, ACCESSES))

    def by_pipe(self) -> dict[PipeClass, float]:
        """Aggregate to the paper's four classes: O_fl, O_mem, O_ctrl, O_reg.

        ``REG`` is register-operand traffic, which is tracked separately
        from instruction counts.
        """
        agg = {p: 0.0 for p in PipeClass}
        for cat, n in self.by_category.items():
            agg[cat.pipe] += n
        agg[PipeClass.REG] += self.reg_ops
        return agg


BranchFractionFn = Callable[[Region, dict, list], float]

DATA_DEP_TRIPS_DEFAULT = 8.0
"""Assumed mean trip count for sequential loops whose bounds cannot be
evaluated from the environment at all -- data-dependent trips (e.g. CSR
row extents) with the input arrays absent, which is exactly the static
analyzer's blind spot.  Callers that *can* see the inputs (the exact
counting substrate) bind the arrays in ``env`` and never hit this.  Each
use is counted as ``counting.fallbacks{kind=trips}``."""


def _sloop_trips(region: Region, env: dict, loop_stack: list) -> float:
    """Mean trips per entry of a sequential loop, best effort.

    Three tiers: exact scalar evaluation when the bounds only reference
    parameters (every regular corpus kernel); a vectorized mean over the
    enclosing loop domain when the bounds reference enclosing loop
    variables or input arrays bound in ``env`` (triangular loops, CSR row
    extents); and :data:`DATA_DEP_TRIPS_DEFAULT` when the data the bounds
    need is absent -- the static analyzer's documented assumption for
    data-dependent loops.
    """
    try:
        return float(region.iterations(env))
    except (KeyError, TypeError):
        pass
    try:
        import numpy as np

        from repro.codegen.ast_nodes import evaluate_expr_numpy

        axes = []
        for r in loop_stack:
            lo = int(evaluate_expr(r.lower, env))
            hi = int(evaluate_expr(r.upper, env))
            axes.append(np.arange(lo, hi, r.step, dtype=np.int64))
        if not axes or any(a.size == 0 for a in axes):
            return DATA_DEP_TRIPS_DEFAULT
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        bind = dict(env)
        for r, g in zip(loop_stack, grids):
            bind[r.loop_var] = g
        lo = np.asarray(evaluate_expr_numpy(region.lower, bind), np.float64)
        hi = np.asarray(evaluate_expr_numpy(region.upper, bind), np.float64)
        trips = np.ceil(np.maximum(hi - lo, 0.0) / region.step)
        shape = tuple(a.size for a in axes)
        return float(np.broadcast_to(trips, shape).mean())
    except (KeyError, TypeError):
        obs.add("counting.fallbacks", kind="trips")
        return DATA_DEP_TRIPS_DEFAULT


def _half(region: Region, env: dict, loop_stack: list) -> float:
    """The static analyzer's branch assumption: both arms equally likely.

    The callback receives THEN *and* ELSE regions and must return the
    execution multiplier for that specific arm (this matters for warp-level
    accounting, where both arms can have multiplier ~1 under divergence).
    """
    return 0.5


def evaluate_region_tree(
    root: Region,
    env: dict[str, float],
    total_threads: int,
    branch_fraction: BranchFractionFn = _half,
) -> DynamicCounts:
    """Compute dynamic counts for the tree under parameter bindings ``env``.

    ``branch_fraction(region, env, loop_stack)`` returns the probability
    that a THEN region's condition holds, given the stack of enclosing loop
    regions (outermost first); ELSE regions automatically receive the
    complement.  Pass an exact evaluator for ground-truth counts or keep the
    default 0.5 for the paper's static estimate.

    The counts come back as a zero-slope :class:`CountForm` at
    ``total_threads``: the tree's categories in declaration order,
    register operands, and each memory access's thread executions.  The
    walk sums no memory traffic; the timing model charges that per
    access.
    """
    if root.kind is not RegionKind.ROOT:
        raise ValueError("evaluate_region_tree expects the ROOT region")
    by_cat: Counter = Counter()
    reg_ops = 0.0
    accesses: list = []
    executions: list = []

    def visit(region: Region, count: float, loops: list) -> None:
        nonlocal reg_ops
        for cat, n in region.counts.items():
            by_cat[cat] += n * count
        reg_ops += region.reg_ops * count
        for acc in region.mem_accesses:
            accesses.append(acc)
            executions.append(count)

        for child in region.children:
            if child.kind is RegionKind.PLOOP:
                child_count = float(child.iterations(env))
                visit(child, child_count, loops + [child])
            elif child.kind is RegionKind.SLOOP:
                child_count = count * _sloop_trips(child, env, loops)
                visit(child, child_count, loops + [child])
            elif child.kind in (RegionKind.THEN, RegionKind.ELSE):
                frac = branch_fraction(child, env, loops)
                visit(child, count * frac, loops)
            else:
                raise ValueError(f"unexpected child region kind {child.kind}")

    visit(root, float(total_threads), [])
    # the counts at ``total_threads`` as a form with zero slope
    base = [0.0] * ACCESSES
    for cat, n in by_cat.items():
        base[ORDINAL[cat]] = n
    base[REG_OPS] = reg_ops
    base += executions
    form = CountForm(tuple(sorted(ORDINAL[cat] for cat in by_cat)),
                     tuple(base), (0.0,) * len(base), tuple(accesses))
    return DynamicCounts(form, total_threads)
