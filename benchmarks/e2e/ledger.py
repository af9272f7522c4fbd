"""Collect one seed's runs into a committed ledger file.

    python3 benchmarks/e2e/run.py --seed 11 --out DIR
    python3 benchmarks/e2e/run.py --seed 11 --trace --out DIR
    python3 benchmarks/e2e/ledger.py DIR --seed 11 > LEDGER

For every workload the ledger keeps the newest untraced and the newest
traced result ``run.py`` wrote to ``DIR`` for that seed, and the host
they ran on.  Ledgers live in ``benchmarks/e2e/results/BENCH_<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def collect(directory, seed: int) -> dict:
    runs: dict = {}
    host = None
    paths = sorted(Path(directory).glob("*-seed*-*traced-*.json"))
    for path in paths:
        doc = json.loads(path.read_text())
        if doc.get("seed") != seed:
            continue
        mode = "traced" if doc["trace"] else "untraced"
        slot = runs.setdefault(doc["workload"], {})
        if doc["started_unix"] >= slot.get(mode, {}).get("started_unix", 0):
            slot[mode] = doc
            host = doc["host"]
    for slot in runs.values():
        for doc in slot.values():
            doc.pop("host")
    return {"seed": seed, "host": host, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("directory")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    ledger = collect(args.directory, args.seed)
    if not ledger["runs"]:
        print(f"error: no results for seed {args.seed} in {args.directory}",
              file=sys.stderr)
        return 1
    print(json.dumps(ledger, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
