"""Benchmark registry and the common benchmark interface.

The registry is the workload corpus the whole stack is exercised
against.  Every benchmark carries a set of *tags* from the fixed
taxonomy in :data:`TAGS` (``memory-bound``, ``compute-bound``,
``stencil``, ``reduction``, ``multi-pass``) so callers -- the ``suite``
experiment, examples, tests -- can select coherent sub-corpora with
:func:`list_benchmarks`.  Benchmarks whose structure constrains the
tuning space (shared-memory tiles, block-level reductions) declare their
own default :class:`~repro.autotune.space.ParameterSpace` and an
emulation-safe launch configuration instead of inheriting the paper's
Table III defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


TAGS = frozenset({
    "memory-bound",
    "compute-bound",
    "stencil",
    "reduction",
    "multi-pass",
    "irregular",
})
"""The corpus tag taxonomy.

``memory-bound``
    Performance limited by global-memory streams (low computational
    intensity: atax, BiCG, the matvec family, mvt, gesummv, gemver).
``compute-bound``
    Arithmetic-dense kernels (high intensity: ex14FJ, gemm).
``stencil``
    Neighbourhood reads with halo/boundary handling (ex14FJ, jacobi2d).
``reduction``
    Cross-thread combining via shared memory and/or atomics (dot,
    histogram).
``multi-pass``
    Several dependent kernel launches per run (atax, BiCG, mvt, gemver).
``irregular``
    Workloads beyond the affine Table IV shape: data-dependent trip
    counts, guards, or store/atomic targets loaded from the inputs
    (spmv_csr, histogram, compact), plus the round-by-round divergent
    cooperative prefix scan -- where static counting degrades and the
    emulator is the ground truth.
"""

DEFAULT_EMU_LAUNCH = (32, 4)
"""Launch configuration used for emulator validation when a benchmark
does not constrain its launch (``tc=32, bc=4`` covers every unconstrained
kernel via the grid-stride mapping)."""


@dataclass(frozen=True)
class Benchmark:
    """One tunable benchmark: kernel specs + reference semantics.

    Attributes
    ----------
    name:
        Registry key (paper name, lowercased).
    specs:
        Kernel specs launched in sequence (atax and BiCG are two passes).
    make_inputs:
        ``f(N, rng) -> dict`` mapping parameter names to NumPy arrays and
        scalars, including zero-initialized outputs.
    reference:
        ``f(inputs) -> dict`` of expected output arrays, NumPy semantics.
    sizes:
        The paper's five input sizes for this benchmark.
    param_env:
        ``f(N) -> dict`` of scalar parameter bindings used by trip-count
        evaluation (e.g. ``{"N": N, "NN": N*N}``).
    output_names:
        Parameter names holding results (checked against the reference).
    tags:
        Corpus tags, a subset of :data:`TAGS`.
    tuning_space:
        Optional zero-argument factory for the benchmark's own default
        :class:`~repro.autotune.space.ParameterSpace` (declared when the
        kernel's structure constrains TC/UIF, e.g. block-level
        reductions needing TC a tile multiple).  ``None`` inherits the
        paper's Table III space.
    emulation_launch:
        Optional ``f(N) -> (tc, bc)`` giving a launch configuration that
        satisfies the kernel's cooperative constraints under emulation
        (barrier trip counts, tile alignment).  ``None`` uses
        :data:`DEFAULT_EMU_LAUNCH`.
    expected_diagnostics:
        Static-analysis findings this benchmark is *expected* to carry
        (``repro.analyze`` check ids, optionally pinned to a kernel as
        ``(kernel_name, check)``).  Every registered benchmark must lint
        clean modulo this list -- an empty tuple, the norm, means "no
        diagnostics tolerated"; ``runner lint`` and the registry test
        fail on anything unexpected.
    """

    name: str
    description: str
    specs: tuple
    make_inputs: Callable
    reference: Callable
    sizes: tuple
    param_env: Callable
    output_names: tuple
    tags: tuple = ()
    tuning_space: Callable | None = None
    emulation_launch: Callable | None = None
    expected_diagnostics: tuple = ()

    def __post_init__(self):
        unknown = set(self.tags) - TAGS
        if unknown:
            raise ValueError(
                f"benchmark {self.name!r} has unknown tags {sorted(unknown)}; "
                f"taxonomy: {sorted(TAGS)}"
            )
        from repro.analyze.checkers import CHECKS

        for entry in self.expected_diagnostics:
            check = entry[1] if isinstance(entry, tuple) else entry
            if check not in CHECKS:
                raise ValueError(
                    f"benchmark {self.name!r} expects unknown diagnostic "
                    f"{check!r}; checks: {CHECKS}"
                )

    def work_extent(self, n: int) -> int:
        """Total parallel-loop iterations at size ``n`` (max over kernels)."""
        from repro.codegen.ast_nodes import evaluate_expr, For

        env = self.param_env(n)
        worst = 0
        for spec in self.specs:
            for s in spec.body:
                if isinstance(s, For) and s.parallel:
                    span = int(evaluate_expr(s.upper, env)) - int(
                        evaluate_expr(s.lower, env)
                    )
                    worst = max(worst, span)
        return worst

    @property
    def smallest_size(self) -> int:
        return min(self.sizes)

    def default_space(self):
        """The benchmark's own tuning space, or the paper's Table III
        space when none is declared."""
        if self.tuning_space is not None:
            return self.tuning_space()
        from repro.autotune.spec import default_tuning_spec

        return default_tuning_spec()

    def emu_launch(self, n: int) -> tuple[int, int]:
        """An emulation-safe ``(tc, bc)`` at size ``n``."""
        if self.emulation_launch is not None:
            tc, bc = self.emulation_launch(n)
            return int(tc), int(bc)
        return DEFAULT_EMU_LAUNCH

    def emulate(
        self,
        n: int | None = None,
        rng=None,
        launch: tuple[int, int] | None = None,
        mode: str | None = None,
        gpu=None,
    ):
        """Compile and emulate this benchmark at size ``n``.

        One-call ground truth: builds inputs, compiles every kernel, and
        runs the full launch sequence under the SIMT emulator at the
        benchmark's declared emulation-safe launch (or ``launch``).
        Routed through the vectorized grid-level fast path by default;
        ``mode="scalar"`` selects the per-warp reference path, with
        identical results.

        Returns ``(outputs, result)`` as
        :func:`repro.sim.emulator.run_benchmark_emulated`.
        """
        from repro.codegen.compiler import CompileOptions, compile_module
        from repro.sim.emulator import run_benchmark_emulated
        from repro.util.rng import rng_for

        n = self.smallest_size if n is None else n
        rng = rng_for("emulate", self.name, n) if rng is None else rng
        inputs = self.make_inputs(n, rng)
        if gpu is None:
            from repro.arch import K20 as gpu  # noqa: N811 - GPU constant
        module = compile_module(
            self.name, list(self.specs), CompileOptions(gpu=gpu)
        )
        tc, bc = self.emu_launch(n) if launch is None else launch
        return run_benchmark_emulated(
            module, inputs, tc=tc, bc=bc, mode=mode
        )


BENCHMARKS: dict[str, Benchmark] = {}


def register(benchmark: Benchmark) -> Benchmark:
    if benchmark.name in BENCHMARKS:
        raise ValueError(f"duplicate benchmark {benchmark.name!r}")
    if benchmark.emulation_launch is None:
        from repro.codegen.ast_nodes import Sync, walk_stmts

        for spec in benchmark.specs:
            cooperative = bool(spec.smem_arrays) or any(
                isinstance(s, Sync) for s in walk_stmts(spec.body)
            )
            if cooperative:
                raise ValueError(
                    f"benchmark {benchmark.name!r}: kernel {spec.name!r} "
                    "uses bar.sync / __shared__ arrays but declares no "
                    "emulation_launch; the default launch would violate its "
                    "cooperative constraints and every emulator-backed "
                    "consumer (suite ground truth, corpus validation) would "
                    "fail or silently skip it. Declare emulation_launch="
                    "lambda n: (tc, bc) satisfying its barrier/tile "
                    "constraints."
                )
    BENCHMARKS[benchmark.name] = benchmark
    return benchmark


def get_benchmark(name: str) -> Benchmark:
    key = name.strip().lower()
    if key not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        )
    return BENCHMARKS[key]


def list_benchmarks(tag: str | None = None) -> list[Benchmark]:
    """Registered benchmarks, sorted by name; ``tag`` filters the corpus.

    >>> [b.name for b in list_benchmarks(tag="stencil")]
    ['ex14fj', 'jacobi2d']
    """
    if tag is not None and tag not in TAGS:
        raise KeyError(f"unknown tag {tag!r}; taxonomy: {sorted(TAGS)}")
    out = [
        b for b in BENCHMARKS.values()
        if tag is None or tag in b.tags
    ]
    return sorted(out, key=lambda b: b.name)
