"""Command-line tools: the static analyzer as a release would ship it.

Subcommands mirror the workflow of the paper's Sec. III:

- ``analyze``    -- full static report for a benchmark on an architecture
  (occupancy, mixes, intensity, T*, rule threads, Eq. 6 cost);
- ``disasm``     -- the nvdisasm-equivalent instruction stream;
- ``occupancy``  -- the occupancy calculator for explicit (T, R, S) inputs;
- ``suggest``    -- Toolkit-style single launch suggestion vs the
  analyzer's T* range;
- ``tune``       -- run the autotuner with any search strategy.

Examples::

    python -m repro.tools analyze atax --arch kepler --size 256
    python -m repro.tools disasm ex14fj --arch fermi --unroll 2
    python -m repro.tools occupancy --arch maxwell -t 256 -r 32 -s 2048
    python -m repro.tools tune bicg --arch pascal --size 128 --search static
"""

from __future__ import annotations

import argparse
import sys

from repro.arch import get_gpu
from repro.autotune.measure import Measurer
from repro.autotune.tuner import Autotuner
from repro.codegen.compiler import CompileOptions, compile_module
from repro.core.analyzer import StaticAnalyzer
from repro.core.occupancy import occupancy
from repro.core.occupancy_api import max_potential_block_size
from repro.core.suggest import suggest_for_module
from repro.kernels import BENCHMARKS, get_benchmark


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("benchmark", choices=sorted(BENCHMARKS))
    p.add_argument("--arch", default="kepler",
                   help="GPU name or family (default: kepler)")


def cmd_analyze(args) -> int:
    bm = get_benchmark(args.benchmark)
    size = args.size or bm.sizes[-1]
    rep = StaticAnalyzer(get_gpu(args.arch)).analyze(
        list(bm.specs), bm.param_env(size), name=bm.name,
        unroll_factor=args.unroll, fast_math=args.fast_math,
    )
    print(rep.summary())
    print()
    print(rep.compile_log)
    if args.verbose:
        print("\npipeline utilization:")
        for unit, frac in sorted(rep.pipeline.items(),
                                 key=lambda kv: -kv[1]):
            print(f"  {unit:5s} {frac:7.1%}")
    return 0


def cmd_disasm(args) -> int:
    bm = get_benchmark(args.benchmark)
    module = compile_module(
        bm.name, list(bm.specs),
        CompileOptions(gpu=get_gpu(args.arch), unroll_factor=args.unroll,
                       fast_math=args.fast_math),
    )
    for ck in module:
        print(ck.disassembly())
        print()
    return 0


def cmd_occupancy(args) -> int:
    gpu = get_gpu(args.arch)
    r = occupancy(gpu, args.threads, args.registers, args.smem)
    print(f"{gpu.short()}")
    print(f"  {r}")
    print(f"  limits: warps={r.limits['warps']} "
          f"registers={r.limits['registers']} smem={r.limits['smem']}")
    return 0


def cmd_suggest(args) -> int:
    bm = get_benchmark(args.benchmark)
    gpu = get_gpu(args.arch)
    module = Measurer(bm, gpu).module_for({})
    s = suggest_for_module(module)
    api = max_potential_block_size(gpu, module.regs_per_thread,
                                   module.static_smem_bytes)
    print(f"analyzer T* range : {list(s.threads)}  (occ* {s.best_occupancy:g})")
    print(f"toolkit-style      : block={api.block_size} "
          f"min_grid={api.min_grid_size} (occ {api.occupancy:g})")
    return 0


def cmd_tune(args) -> int:
    bm = get_benchmark(args.benchmark)
    gpu = get_gpu(args.arch)
    size = args.size or bm.sizes[-1]
    tuner = Autotuner(bm, gpu)
    kwargs = {}
    if args.budget:
        kwargs["budget"] = args.budget
    out = tuner.tune(size=size, search=args.search,
                     use_rule=args.rule, **kwargs)
    print(f"best {out.best_seconds * 1e6:.1f} us at {out.best_config}")
    print(f"{out.search.evaluations} measurements, "
          f"{out.search.space_reduction:.1%} space removed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools", description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="static analysis report")
    _add_common(p)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--unroll", type=int, default=1)
    p.add_argument("--fast-math", action="store_true")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("disasm", help="disassembled instruction stream")
    _add_common(p)
    p.add_argument("--unroll", type=int, default=1)
    p.add_argument("--fast-math", action="store_true")
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser("occupancy", help="occupancy calculator")
    p.add_argument("--arch", default="kepler")
    p.add_argument("-t", "--threads", type=int, required=True)
    p.add_argument("-r", "--registers", type=int, default=0)
    p.add_argument("-s", "--smem", type=int, default=0)
    p.set_defaults(fn=cmd_occupancy)

    p = sub.add_parser("suggest", help="launch-config suggestions")
    _add_common(p)
    p.set_defaults(fn=cmd_suggest)

    p = sub.add_parser("tune", help="run the autotuner")
    _add_common(p)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--search", default="static",
                   help="exhaustive | random | annealing | genetic | "
                        "simplex | static")
    p.add_argument("--rule", action="store_true",
                   help="apply the intensity rule (static search)")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=cmd_tune)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
