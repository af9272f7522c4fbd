"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result JSONs ``run.py`` wrote (``--out``)
for one commit.  Runs of a workload are paired in the order they started,
so alternate the commits when making them.  Per row the table gives each
side's median and quartiles, the share of pairs the change won (ties
count for neither) and a verdict, using the bounds in ``BENCHMARK.json``:

- ``improved``: at least ten pairs, the change won at least nine tenths
  of them, and the medians differ by more than the parent's quartile
  spread;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound, and the parent's spread is within the bound (or every
  change run is worse than every parent run);
- ``unresolved``: the parent's spread is wider than the bound and the
  runs do not separate;
- ``unchanged``: otherwise.

Runs of the same workload and seed must agree on ``outputs_digest``, on
either side and across them; any mismatch fails the comparison.  Exit
status: 0 when nothing regressed and every digest matches, else 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles  # noqa: E402

BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"


def load_runs(directory) -> dict:
    """``{workload: [result, ...]}`` of untraced runs, oldest first."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if "workload" not in doc or doc.get("trace"):
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d.get("started_unix", 0))
    return runs


def verdict(parent, change, better: str, bound: float) -> dict:
    """Compare one metric's run values (in run order) on both sides."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cm - pm) / abs(pm)
    spread = (p3 - p1) / abs(pm)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) > 0 for p in parent for c in change)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and -worse_by * abs(pm) > p3 - p1):
        outcome = "improved"
    elif worse_by > bound:
        outcome = "regressed" if spread <= bound or all_worse \
            else "unresolved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "pairs": len(pairs), "win_frac": wins / len(pairs) if pairs else 0.0,
        "worse_by": worse_by, "parent_spread": spread, "verdict": outcome,
    }


def digest_mismatches(parent_runs: dict, change_runs: dict) -> list:
    seen: dict = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for workload, docs in runs.items():
            for doc in docs:
                seen.setdefault((workload, doc["seed"]), set()).add(
                    (side, doc["outputs_digest"]))
    return [
        f"{workload} seed {seed}: " + ", ".join(
            f"{side} {digest[:12]}" for side, digest in sorted(found))
        for (workload, seed), found in sorted(seen.items())
        if len({d for _side, d in found}) > 1
    ]


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> list:
    rows = []
    for metric in spec["end_to_end"]:
        for workload in sorted(set(parent_runs) & set(change_runs)):
            values = [
                [doc["metrics"][metric["name"]]["value"] for doc in docs]
                for docs in (parent_runs[workload], change_runs[workload])
            ]
            row = verdict(values[0], values[1], metric["better"],
                          metric["bound"])
            row.update(metric=metric["name"], workload=workload,
                       unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
    return rows


def render(rows: list) -> str:
    head = (f"{'metric':16s} {'workload':12s} {'parent median [q1, q3]':34s}"
            f" {'change median [q1, q3]':34s} {'pairs':>5s} {'wins':>5s}"
            f" {'worse by':>9s} {'bound':>6s}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        p1, pm, p3 = r["parent"]
        c1, cm, c3 = r["change"]
        lines.append(
            f"{r['metric']:16s} {r['workload']:12s} "
            f"{_cell(pm, p1, p3, r['unit']):34s} "
            f"{_cell(cm, c1, c3, r['unit']):34s} "
            f"{r['pairs']:5d} {r['win_frac']:5.2f} {r['worse_by']:+9.1%} "
            f"{r['bound']:6.2f}  {r['verdict']}"
        )
    return "\n".join(lines)


def _cell(median, q1, q3, unit) -> str:
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] {unit}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text())
    parent, change = load_runs(args.parent_dir), load_runs(args.change_dir)
    if not parent or not change:
        print("error: no untraced result JSONs in "
              f"{args.parent_dir if not parent else args.change_dir}",
              file=sys.stderr)
        return 1
    rows = compare(parent, change, spec)
    print(render(rows))
    mismatches = digest_mismatches(parent, change)
    for m in mismatches:
        print(f"OUTPUTS DIFFER: {m}", file=sys.stderr)
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    return 1 if mismatches or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
