"""Experiment CLI: regenerate any table or figure of the paper.

Usage::

    python -m repro.experiments.runner                 # all, reduced sweep
    python -m repro.experiments.runner fig4 table5     # a subset
    python -m repro.experiments.runner --full fig6     # paper-size sweep
    python -m repro.experiments.runner --arch kepler --kernel atax fig4
    python -m repro.experiments.runner --out results/  # save to files
    python -m repro.experiments.runner --jobs 4 fig4 table5   # parallel sweep
    python -m repro.experiments.runner --no-cache fig5 # force remeasurement

Service mode (autotuning as a service; see docs/ARCHITECTURE.md)::

    python -m repro.experiments.runner serve --port 8737 --jobs 2
    python -m repro.experiments.runner client atax bicg --search random \
        --budget 40 --seed 7 --url http://127.0.0.1:8737

Sweeps are backed by a persistent on-disk cache (``--cache``, on by
default; ``--cache-dir`` or ``$REPRO_CACHE_DIR`` picks the location), so
re-running an experiment with the same model parameters is near-free.
``--jobs N`` shards sweep measurement across N worker processes and runs
independent (non-sweep) experiments concurrently; output text is
identical to a serial run regardless.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro import obs
from repro.arch.specs import ALL_GPUS, get_gpu
from repro.engine import default_cache_dir, resolve_jobs
from repro.experiments import common
from repro.experiments import (
    fig1_divergence,
    fig3_spec,
    fig4_thread_counts,
    fig5_time_model,
    fig6_search_improvement,
    fig7_occupancy_calc,
    lint_kernels,
    suite_eval,
    table1_gpus,
    table2_throughput,
    table5_statistics,
    table6_mix_errors,
    table7_suggestions,
)
from repro.kernels import BENCHMARKS, get_benchmark
from repro.kernels.base import TAGS

_MODULES = {
    "table1": table1_gpus,
    "table2": table2_throughput,
    "fig1": fig1_divergence,
    "fig3": fig3_spec,
    "fig4": fig4_thread_counts,
    "table5": table5_statistics,
    "fig5": fig5_time_model,
    "table6": table6_mix_errors,
    "table7": table7_suggestions,
    "fig6": fig6_search_improvement,
    "fig7": fig7_occupancy_calc,
    "suite": suite_eval,
    "lint": lint_kernels,
}

#: experiments drawing on the shared exhaustive sweep (and its in-process
#: memo + sweep engine); these run in the coordinating process so they
#: reuse each other's measurements, while the rest may run concurrently.
#: Declared by the modules themselves (``USES_SHARED_SWEEP = True``) so a
#: new sweep-backed experiment cannot silently end up in a worker process
#: with its own second cache writer.
SWEEP_POOLED = frozenset(
    name for name, mod in _MODULES.items()
    if getattr(mod, "USES_SHARED_SWEEP", False)
)


def run_experiment(name: str, full: bool = False, archs=None,
                   kernels=None, tags=None, with_status: bool = False):
    """Run one experiment, return its rendered text.

    ``with_status=True`` returns ``(text, status)`` where ``status`` is
    the experiment's exit code (experiments that gate CI -- ``lint`` --
    declare an ``exit_code(result)``; everything else reports 0).
    """
    if name not in _MODULES:
        raise KeyError(
            f"unknown experiment {name!r}; available: {list(_MODULES)}"
        )
    mod = _MODULES[name]
    # each experiment takes the filters its run() declares; an unset
    # filter leaves that run()'s own default in place
    accepts = inspect.signature(mod.run).parameters
    filters = {"full": full, "archs": archs, "kernels": kernels,
               "tags": tags}
    kwargs = {
        k: v for k, v in filters.items()
        if k in accepts and (v or k == "full")
    }
    result = mod.run(**kwargs)
    text = mod.render(result)
    if with_status:
        status = int(getattr(mod, "exit_code", lambda _r: 0)(result))
        return text, status
    return text


def _run_timed(name: str, full: bool, archs, kernels, tags=None) -> tuple:
    """``(text, elapsed, status)`` for one experiment (picklable pool
    target)."""
    t0 = time.time()
    text, status = run_experiment(name, full=full, archs=archs,
                                  kernels=kernels, tags=tags,
                                  with_status=True)
    return text, time.time() - t0, status


def serve_main(argv) -> int:
    """``runner serve``: run the autotuning service in the foreground."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Serve the autotuner over HTTP (ask/tell sessions, "
                    "shared measurement store, worker fleet).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8737,
                        help="listen port (0 = ephemeral; default 8737)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="shared measurement store location "
                             f"(default {default_cache_dir()}; "
                             "--no-cache disables persistence)")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="persist measurements in the shared store "
                             "(default: on)")
    parser.add_argument("--max-entries", type=int, default=None,
                        metavar="N",
                        help="LRU cap for the store (default unbounded)")
    parser.add_argument("--drainers", type=int, default=2, metavar="N",
                        help="concurrent measurement jobs (default 2)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes per drainer engine "
                             "(0 = one per CPU; default 1 = inline)")
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH",
                        help="write a Chrome trace of the server's "
                             "lifetime on shutdown")
    parser.add_argument("--metrics", type=Path, default=None,
                        metavar="PATH",
                        help="write a JSON metrics snapshot on shutdown")
    args = parser.parse_args(argv)

    if not 0 <= args.port <= 65535:
        parser.error(f"--port must be in [0, 65535], got {args.port}")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.drainers < 1:
        parser.error("--drainers must be >= 1")
    if args.max_entries is not None and args.max_entries < 1:
        parser.error("--max-entries must be >= 1")
    cache_dir = None
    if args.cache:
        cache_dir = args.cache_dir or default_cache_dir()

    from repro.api import serve

    return serve(
        host=args.host, port=args.port, cache_dir=cache_dir,
        max_entries=args.max_entries, drainers=args.drainers,
        jobs=args.jobs, trace=args.trace, metrics=args.metrics,
    )


def client_main(argv) -> int:
    """``runner client``: submit tuning sessions to a running server."""
    import os

    parser = argparse.ArgumentParser(
        prog="repro-experiments client",
        description="Tune kernels through a running autotuning server.",
    )
    parser.add_argument("kernels", nargs="+",
                        help="kernels to tune (one session each)")
    parser.add_argument("--url",
                        default=os.environ.get("REPRO_SERVICE_URL",
                                               "http://127.0.0.1:8737"),
                        help="server URL (default $REPRO_SERVICE_URL or "
                             "http://127.0.0.1:8737)")
    parser.add_argument("--arch", default="kepler",
                        help="GPU name or family (default kepler)")
    parser.add_argument("--size", type=int, default=64,
                        help="input size (default 64)")
    parser.add_argument("--search", default="exhaustive",
                        help="search strategy (default exhaustive)")
    parser.add_argument("--budget", type=int, default=None,
                        help="evaluation budget (default: strategy's own)")
    parser.add_argument("--use-rule", action="store_true",
                        help="apply the intensity rule (static search)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for stochastic strategies")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-session wait timeout in seconds")
    args = parser.parse_args(argv)

    # the same up-front registry validation the experiments path does: a
    # typo should name the registry here, not surface as a server 400
    from repro.autotune.search import SEARCH_REGISTRY

    for kernel in args.kernels:
        try:
            get_benchmark(kernel)
        except KeyError:
            parser.error(
                f"unknown kernel {kernel!r}; registered: "
                f"{', '.join(sorted(BENCHMARKS))}"
            )
    try:
        get_gpu(args.arch)
    except KeyError:
        parser.error(
            f"unknown architecture {args.arch!r}; available: "
            f"{', '.join(g.name for g in ALL_GPUS)} (or family aliases)"
        )
    if args.search.strip().lower() not in SEARCH_REGISTRY:
        parser.error(
            f"unknown search {args.search!r}; available: "
            f"{', '.join(sorted(SEARCH_REGISTRY))}"
        )
    if args.size <= 0:
        parser.error("--size must be positive")
    if args.budget is not None and args.budget <= 0:
        parser.error("--budget must be positive")

    from repro.api import connect
    from repro.client import ServiceError

    try:
        client = connect(args.url)
    except (OSError, ServiceError) as e:
        print(f"[client] cannot reach {args.url}: {e}", file=sys.stderr)
        return 2

    search_args = {}
    if args.seed is not None:
        search_args["seed"] = args.seed
    rc = 0
    for kernel in args.kernels:
        try:
            result = client.tune(
                kernel, args.arch, args.size, search=args.search,
                budget=args.budget, use_rule=args.use_rule,
                timeout=args.timeout, **search_args,
            )
        except (ServiceError, TimeoutError, OSError) as e:
            print(f"[client] {kernel}: FAILED: {e}", file=sys.stderr)
            rc = max(rc, 1)
            continue
        print(
            f"{kernel}: best {result.best_config} = "
            f"{result.best_value:.6g}s over {result.evaluations} "
            f"evaluations (space {result.space_size}/"
            f"{result.full_space_size})"
        )
    stats = client.store_stats()
    print(
        f"[client] server store: {stats.entries} entries, "
        f"{stats.measured} measured / {stats.served_from_cache} served "
        "from cache (fleet lifetime)",
        file=sys.stderr,
    )
    return rc


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # service subcommands dispatch before the experiments parser so each
    # keeps its own focused --help and argument validation
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        return client_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*", default=[],
                        help=f"subset of {list(_MODULES)} (default all)")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full 5,120-variant space")
    parser.add_argument("--arch", action="append", dest="archs",
                        help="restrict to an architecture (repeatable)")
    parser.add_argument("--kernel", action="append", dest="kernels",
                        help="restrict to a kernel (repeatable)")
    parser.add_argument("--tag", action="append", dest="tags",
                        help="restrict the suite corpus to a workload tag "
                             f"(repeatable; one of {sorted(TAGS)})")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write one .txt per experiment")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweeps and independent "
                             "experiments (0 = one per CPU)")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="persist sweep measurements on disk "
                             "(default: on; --no-cache disables)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help=f"cache location (default {default_cache_dir()})")
    parser.add_argument("--progress", action="store_true",
                        help="paint a sweep progress meter on stderr")
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH",
                        help="write a Chrome trace-event JSON of the run "
                             "(open in Perfetto / chrome://tracing)")
    parser.add_argument("--metrics", type=Path, default=None, metavar="PATH",
                        help="write a JSON metrics snapshot of the run")
    args = parser.parse_args(argv)

    chosen = args.experiments or list(_MODULES)
    for name in chosen:
        if name not in _MODULES:
            parser.error(f"unknown experiment {name!r}")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    # validate filter values up front: a typo should name the registry,
    # not raise a KeyError three layers into an experiment
    for kernel in args.kernels or ():
        try:
            get_benchmark(kernel)
        except KeyError:
            parser.error(
                f"unknown kernel {kernel!r}; registered: "
                f"{', '.join(sorted(BENCHMARKS))}"
            )
    for arch in args.archs or ():
        try:
            get_gpu(arch)
        except KeyError:
            parser.error(
                f"unknown architecture {arch!r}; available: "
                f"{', '.join(g.name for g in ALL_GPUS)} (or family aliases)"
            )
    for tag in args.tags or ():
        if tag not in TAGS:
            parser.error(
                f"unknown tag {tag!r}; taxonomy: {', '.join(sorted(TAGS))}"
            )
    if "suite" in chosen and args.tags and args.kernels:
        from repro.suite import corpus_members

        if not corpus_members(tags=args.tags, kernels=args.kernels):
            parser.error(
                f"no registered benchmark matches both --tag {args.tags} "
                f"and --kernel {args.kernels}"
            )

    # observability: collectors must exist before any engine or
    # emulator work runs.  A metrics snapshot is also produced when only
    # --trace is given (and vice versa) since both cost nothing extra.
    if args.trace is not None or args.metrics is not None:
        obs.enable()

    cache_dir = None
    if args.cache:
        cache_dir = args.cache_dir or default_cache_dir()
    common.configure_sweeps(jobs=args.jobs, cache_dir=cache_dir,
                            progress=args.progress)

    # Independent experiments can run concurrently in worker processes;
    # the sweep-pooled ones stay here to share measurements.  Results are
    # printed strictly in the requested order either way.
    futures: dict = {}
    executor = None
    independents = [n for n in dict.fromkeys(chosen) if n not in SWEEP_POOLED]
    if args.jobs != 1 and len(independents) > 1:
        executor = ProcessPoolExecutor(
            max_workers=min(len(independents), resolve_jobs(args.jobs))
        )
        futures = {
            n: executor.submit(_run_timed, n, args.full, args.archs,
                               args.kernels, args.tags)
            for n in independents
        }
    rc = 0
    interrupted = False
    try:
        for name in dict.fromkeys(chosen):
            if name in futures:
                text, elapsed, status = futures[name].result()
            else:
                text, elapsed, status = _run_timed(
                    name, args.full, args.archs, args.kernels, args.tags
                )
            rc = max(rc, status)
            header = f"##### {name} ({elapsed:.1f}s) " + "#" * 30
            print(header)
            print(text)
            print()
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{name}.txt").write_text(text + "\n")
    except KeyboardInterrupt:
        # no traceback: close the pools, keep what the incremental
        # checkpointing already persisted, exit nonzero
        interrupted = True
        print(
            "\n[runner] interrupted -- shutting down workers; "
            "measurements completed so far are already persisted",
            file=sys.stderr,
        )
    finally:
        if executor is not None:
            executor.shutdown(
                wait=not interrupted, cancel_futures=interrupted
            )
        _print_engine_summary()
        common.shutdown_sweeps()
        _write_obs_artifacts(args.trace, args.metrics)
    return 130 if interrupted else rc


def _print_engine_summary() -> None:
    """One-line lifetime cache summary for the shared engine (stderr, so
    stdout stays byte-identical across runs).  Always printed when an
    engine ran -- it used to be gated on ``--progress``, which hid the
    lifetime cache stats from every default invocation.  Also mirrors
    the lifetime counters into the metrics registry so the snapshot is
    self-contained."""
    engine = common.shared_engine()
    if engine is None:
        return
    total = engine.total_measured + engine.total_hits
    if not (total or engine.total_retries or engine.total_failures):
        return  # engine configured but never ran (static experiments)
    if obs.metrics is not None:
        obs.set_gauge("engine.lifetime_measured", engine.total_measured)
        obs.set_gauge("engine.lifetime_cache_hits", engine.total_hits)
        obs.set_gauge("engine.lifetime_retries", engine.total_retries)
        obs.set_gauge("engine.lifetime_recovered", engine.total_recovered)
        obs.set_gauge("engine.lifetime_quarantined", engine.total_failures)
        if engine.cache is not None:
            obs.metrics.absorb_cache_stats(engine.cache)
    rate = engine.total_hits / total if total else 0.0
    resilience = ""
    if engine.total_retries or engine.total_failures:
        resilience = (
            f"; {engine.total_retries} retried, "
            f"{engine.total_recovered} recovered, "
            f"{engine.total_failures} quarantined"
        )
    print(
        f"[engine] {engine.total_measured} measured, "
        f"{engine.total_hits} cache hits ({rate:.1%} hit rate) "
        f"over {total} evaluations{resilience}",
        file=sys.stderr,
    )


def _write_obs_artifacts(trace_path, metrics_path) -> None:
    """Export the run's trace and metrics (after the sweep engines shut
    down, so every worker-shipped span buffer has been absorbed), plus
    the ASCII span-tree summary on stderr for traced runs."""
    if trace_path is not None:
        obs.write_trace(trace_path)
        print(f"[obs] trace written to {trace_path}", file=sys.stderr)
        print(obs.render_tree(), file=sys.stderr)
    if metrics_path is not None:
        obs.write_metrics(metrics_path)
        print(f"[obs] metrics written to {metrics_path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
