"""Launch the autotuning service for the service-mix workload.

    python3 benchmarks/e2e/serve.py --cache-dir DIR --stats FILE [--trace]

Runs ``repro.service.server.serve`` on a free port (the address is in
the ``listening on`` line on standard error) until SIGTERM, then writes
``FILE``: the server process's peak RSS and, with ``--trace``, its
per-layer aggregates and spans, recorded by wrappers installed here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import layers  # noqa: E402
from repro.service.server import serve  # noqa: E402
from workloads import peak_rss_mb  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install(layers.LIBRARY_PROBES + layers.SERVICE_PROBES)
    try:
        rc = serve(host="127.0.0.1", port=0, cache_dir=args.cache_dir,
                   drainers=2, jobs=1)
    finally:
        if tracer is not None:
            tracer.uninstall()
    stats = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        stats["summary"] = tracer.summary()
        stats["events"] = tracer.events
    tmp = Path(args.stats + ".tmp")
    tmp.write_text(json.dumps(stats))
    os.replace(tmp, args.stats)
    return rc


if __name__ == "__main__":
    sys.exit(main())
