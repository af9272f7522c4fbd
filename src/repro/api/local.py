"""In-process execution of the protocol: one :class:`TuneRequest` in,
one :class:`SessionResult` out.

:func:`resolve_request` builds a request's tuner and strategy for this
path and for the service's session manager -- the server is a remote
:func:`run_tune_request` multiplexed over a shared engine -- which is
what makes the byte-identity acceptance test meaningful: both sides
serialize the identical types produced by the identical tuner.
"""

from __future__ import annotations

from repro.api.protocol import ProtocolError, SessionResult, TuneRequest

__all__ = ["resolve_request", "run_tune_request", "tune", "unknown_name"]


def unknown_name(kernels=(), archs=(), search=None) -> str | None:
    """A message naming the registry of the first unknown kernel,
    architecture or search (in that order), or ``None``: the one wording
    of ``parser.error`` in the CLI and of the server's 400."""
    from repro.arch.specs import ALL_GPUS, get_gpu
    from repro.autotune.search import SEARCH_REGISTRY
    from repro.kernels import BENCHMARKS, get_benchmark

    for kernel in kernels:
        try:
            get_benchmark(kernel)
        except KeyError:
            return (f"unknown kernel {kernel!r}; registered: "
                    f"{', '.join(sorted(BENCHMARKS))}")
    for arch in archs:
        try:
            get_gpu(arch)
        except KeyError:
            return (f"unknown architecture {arch!r}; available: "
                    f"{', '.join(g.name for g in ALL_GPUS)} "
                    "(or family aliases)")
    if search is not None and search.strip().lower() not in SEARCH_REGISTRY:
        return (f"unknown search {search!r}; available: "
                f"{', '.join(sorted(SEARCH_REGISTRY))}")
    return None


def resolve_request(request: TuneRequest):
    """Validate a request; return ``(tuner, strategy)``: its
    :class:`~repro.autotune.tuner.Autotuner` and the strategy
    ``make_search`` builds for it.

    Raises :class:`ProtocolError` with :func:`unknown_name`'s message
    for anything unknown, and for search arguments the strategy rejects,
    so the server can answer 400 with a structured envelope.
    """
    from repro.arch.specs import get_gpu
    from repro.autotune.tuner import Autotuner
    from repro.kernels import get_benchmark

    message = unknown_name([request.kernel], [request.gpu], request.search)
    if message is not None:
        raise ProtocolError(message)
    space = None if request.space is None else request.space.to_space()
    tuner = Autotuner(get_benchmark(request.kernel), get_gpu(request.gpu),
                      space=space)
    try:
        strategy = tuner.make_search(
            request.search, use_rule=request.use_rule, size=request.size,
            **dict(request.search_args),
        )
    except (KeyError, TypeError, ValueError) as e:  # an unknown inner too
        raise ProtocolError(f"bad search_args: {e}") from None
    return tuner, strategy


def run_tune_request(
    request: TuneRequest,
    engine=None,
    session_id: str = "local",
) -> SessionResult:
    """Execute one tuning request in this process, on ``engine`` (see
    :meth:`~repro.autotune.tuner.Autotuner.tune`): parallel sharding and
    the persistent measurement cache are the engine's."""
    tuner, strategy = resolve_request(request)
    outcome = tuner.tune(request.size, search=strategy,
                         budget=request.budget, engine=engine)
    return SessionResult.from_search(
        session_id, outcome.search,
        measurements=outcome.results.measurements,
    )


def tune(
    kernel: str,
    gpu: str,
    size: int,
    search: str = "exhaustive",
    budget: int | None = None,
    use_rule: bool = False,
    space=None,
    engine=None,
    **search_args,
) -> SessionResult:
    """The in-process face of the public API: tune one kernel, get the
    protocol's :class:`SessionResult` back.

    >>> from repro.api import tune
    >>> result = tune("atax", "kepler", size=32, search="random",
    ...               budget=20, seed=7)            # doctest: +SKIP
    >>> result.best_config                          # doctest: +SKIP

    ``space`` may be a :class:`~repro.api.protocol.SpaceSpec`, a
    :class:`~repro.autotune.space.ParameterSpace`, or ``None`` (the
    benchmark's default space); ``engine`` is the
    :class:`~repro.engine.engine.SweepEngine` to measure on, if any.
    """
    from repro.api.protocol import SpaceSpec
    from repro.autotune.space import ParameterSpace

    if isinstance(space, ParameterSpace):
        space = SpaceSpec.from_space(space)
    elif space is not None and not isinstance(space, SpaceSpec):
        raise ProtocolError(
            f"space must be a SpaceSpec or ParameterSpace, got {space!r}"
        )
    request = TuneRequest(
        kernel=kernel, gpu=gpu, size=size, search=search, budget=budget,
        use_rule=use_rule, space=space, search_args=dict(search_args),
    )
    return run_tune_request(request, engine=engine)
