"""End-to-end tuning benchmark.

Runs the seeded workloads of ``workloads.py``, prints every metric with
its unit and sample count, runs each workload's output checks, and
writes one result JSON per workload (plus, when traced, one Chrome
trace)::

    python3 benchmarks/e2e/run.py                        # all workloads
    python3 benchmarks/e2e/run.py --workload sweep-cold --seed 11
    python3 benchmarks/e2e/run.py --workload tune-mix --trace 1

Each workload runs in a child process of its own, started with
``PYTHONHASHSEED=0`` like every process it starts in turn: the timing
model sums floats in an order that follows string hashing, so results
are byte-identical across processes only under one hash seed.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (per workload when several ran).  The exit
status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("sweep-cold", "sweep-warm", "tune-mix", "service-mix")
DEFAULT_SEED = 11
HELD_OUT_SEED = 1011
"""A seed kept out of development, for confirming a claimed gain."""
DEFAULT_SECONDS = 8


def host_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git (a
    checkout that is not a repository has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_result(result: dict) -> None:
    checks = result["checks"]
    passed = sum(c["ok"] for c in checks)
    mode = "traced" if result["trace"] else "untraced"
    print(f"[{result['workload']}] seed {result['seed']}, {mode}, "
          f"{result['ops']} operations ({result['failed']} failed), "
          f"checks {passed}/{len(checks)} passed")
    for name, m in result["metrics"].items():
        raw = result["unscaled"].get(name)
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:9s} (n={m['n']})"
              + ("" if raw is None else f"  unscaled {raw:.6g}"))
    speed = result["speed"]
    print(f"  times scaled to the reference CPU speed: {speed['samples']} "
          f"samples, mean speed {speed['mean_factor']:.3f}, "
          f"{speed['waited_s']:.2f} s waited out")
    for c in checks:
        print(f"  check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: "
              f"{c['detail']}")
    print(f"  outputs_digest {result['outputs_digest']}")


def run_one(args) -> int:
    from workloads import execute

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workdir = out / "work" / f"{args.workload[0]}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # keep every temporary file inside the checkout, this process and its
    # children alike
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    started = time.time()
    try:
        result, trace = execute(
            args.workload[0], args.seed, args.seconds, workdir,
            trace=bool(args.trace),
        )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    result["started_unix"] = started
    result["host"] = host_info()
    stem = (f"{result['workload']}-seed{args.seed}-"
            f"{'traced' if args.trace else 'untraced'}-{int(started * 1e3)}")
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if trace is not None:
        (out / f"trace-{result['workload']}.json").write_text(
            json.dumps(trace))
    print_result(result)
    for c in result["checks"]:
        if not c["ok"]:
            print(f"FAILED CHECK {result['workload']}: {c['name']}",
                  file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def run_children(args) -> int:
    """Each workload in a fresh child process under one hash seed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    status, last_lines = 0, {}
    for name in args.workload:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(args.out)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        lines = proc.stdout.splitlines()
        status = max(status, proc.returncode)
        try:
            last_lines[name] = json.loads(lines[-1])
            lines = lines[:-1]
        except (IndexError, json.JSONDecodeError):
            status = max(status, 1)
        if lines:
            print("\n".join(lines), flush=True)
    if status and len(last_lines) < len(args.workload):
        return status  # a child died before its result: print none
    if len(args.workload) == 1:
        print(json.dumps(last_lines[args.workload[0]]))
        return status
    combined = {
        "correct": all(r["correct"] for r in last_lines.values()),
        "attempted": sum(r["attempted"] for r in last_lines.values()),
        "failed": sum(r["failed"] for r in last_lines.values()),
        "metrics": {f"{name}.{k}": m for name, r in last_lines.items()
                    for k, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="nominal measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): per-layer traced run")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for result JSONs and traces")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    args.workload = args.workload or list(WORKLOADS)
    if args.child:
        return run_one(args)
    return run_children(args)


if __name__ == "__main__":
    sys.exit(main())
