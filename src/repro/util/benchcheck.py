"""Benchmark-regression gate for CI.

Compares two ``pytest-benchmark --benchmark-json`` files and fails when
any benchmark matching the watched name patterns slowed down by more
than the threshold on its median.  Used by the ``benchmarks`` CI job to
compare every run against the baseline JSON cached from the last push to
``main``::

    python -m repro.util.benchcheck bench.json baseline/bench.json \
        --threshold 0.30 --pattern emulator --pattern sweep

A missing baseline is not an error (first run on a fresh cache); the
comparison simply reports that nothing was compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_PATTERNS = ("emulator", "sweep", "codec", "fig6", "compile",
                    "search_batch", "measure")
"""Benchmarks watched by default: the emulator fast path, the engine
sweep/cache paths -- the two hot paths with asserted speedup bars -- the
service protocol codec, the Fig. 6 search, whose cost is the
closed-form counting of recompiled variants, the compile pipeline
every measured variant goes through, the batched genetic search,
which slows down if search rounds start compiling their modules
again, and the per-point measurement (counting, timing and noise) every
cold sweep pays."""


def load_medians(path: str | Path) -> dict[str, float]:
    """``fullname -> median seconds`` from a pytest-benchmark JSON file."""
    data = json.loads(Path(path).read_text())
    return {
        b["fullname"]: float(b["stats"]["median"])
        for b in data.get("benchmarks", [])
    }


def find_regressions(
    current: dict[str, float],
    baseline: dict[str, float],
    threshold: float = 0.30,
    patterns: tuple[str, ...] = DEFAULT_PATTERNS,
) -> list[tuple[str, float, float, float]]:
    """Watched benchmarks whose median slowed by more than ``threshold``.

    Returns ``(fullname, baseline_median, current_median, ratio)`` rows,
    worst first.  Benchmarks absent from the baseline are new and never
    regressions; benchmarks matching no pattern are not watched.
    """
    out = []
    for name, cur in sorted(current.items()):
        if patterns and not any(p in name for p in patterns):
            continue
        base = baseline.get(name)
        if base is None or base <= 0:
            continue
        ratio = cur / base
        if ratio > 1.0 + threshold:
            out.append((name, base, cur, ratio))
    out.sort(key=lambda r: r[3], reverse=True)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.util.benchcheck",
        description="Fail on pytest-benchmark median regressions.",
    )
    parser.add_argument("current", help="benchmark JSON of this run")
    parser.add_argument("baseline", help="benchmark JSON of the baseline")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed median slowdown (default 0.30)")
    parser.add_argument("--pattern", action="append", default=None,
                        help="watched fullname substring (repeatable; "
                             f"default {list(DEFAULT_PATTERNS)})")
    args = parser.parse_args(argv)
    patterns = tuple(args.pattern) if args.pattern else DEFAULT_PATTERNS

    if not Path(args.baseline).exists():
        print(f"benchcheck: no baseline at {args.baseline}; "
              "nothing to compare (first run?)")
        return 0
    current = load_medians(args.current)
    baseline = load_medians(args.baseline)
    watched = [
        n for n in sorted(current)
        if not patterns or any(p in n for p in patterns)
    ]
    for name in watched:
        base = baseline.get(name)
        cur = current[name]
        note = f"{cur / base:6.2f}x vs baseline" if base else "   new"
        print(f"  {cur * 1e3:9.1f} ms  {note}  {name}")

    regressions = find_regressions(current, baseline,
                                   threshold=args.threshold,
                                   patterns=patterns)
    if regressions:
        print(f"\nbenchcheck: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}:")
        for name, base, cur, ratio in regressions:
            print(f"  {name}: {base * 1e3:.1f} ms -> {cur * 1e3:.1f} ms "
                  f"({ratio:.2f}x)")
        return 1
    print(f"\nbenchcheck: {len(watched)} watched benchmark(s) within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
