"""``lint``: static analysis over the registered kernel corpus.

Runs every :mod:`repro.analyze` checker on each registered benchmark
(compiled at its smallest size, under its emulation-safe launch) and
prints a per-kernel diagnostics table.  A diagnostic is *unexpected*
unless the benchmark's ``expected_diagnostics`` annotation covers it;
the CLI exits nonzero on any unexpected finding, which is what the CI
``analyze`` job gates on.
"""

from __future__ import annotations

from repro.analyze import lint_benchmark, unexpected_diagnostics
from repro.experiments.common import resolve_kernels
from repro.kernels import get_benchmark, list_benchmarks
from repro.util.tables import ascii_table


def run(kernels=None, tags=None) -> dict:
    # default to the FULL registry (not the paper's 4-kernel order):
    # lint gates registration, so every benchmark is in scope
    if kernels:
        names = resolve_kernels(kernels)
    else:
        names = [b.name for b in list_benchmarks()]
    if tags:
        tagged = {b.name for t in tags for b in list_benchmarks(tag=t)}
        names = [n for n in names if n in tagged]
    rows = []
    findings = []
    unexpected_total = 0
    for name in names:
        bench = get_benchmark(name)
        reports = lint_benchmark(bench)
        diags = [d for rep in reports for d in rep.diagnostics]
        unexpected = unexpected_diagnostics(bench, reports)
        unexpected_total += len(unexpected)
        unexpected_set = set(unexpected)
        rows.append({
            "benchmark": name,
            "kernels": len(reports),
            "diagnostics": len(diags),
            "expected": len(diags) - len(unexpected),
            "unexpected": len(unexpected),
            "status": "FAIL" if unexpected else "ok",
        })
        findings.extend(
            {"benchmark": name, "text": str(d),
             "unexpected": d in unexpected_set}
            for d in diags
        )
    return {
        "rows": rows,
        "findings": findings,
        "unexpected_total": unexpected_total,
    }


def render(result: dict) -> str:
    headers = ["Benchmark", "Kernels", "Diagnostics", "Expected",
               "Unexpected", "Status"]
    table = ascii_table(
        headers,
        [[r["benchmark"], r["kernels"], r["diagnostics"], r["expected"],
          r["unexpected"], r["status"]] for r in result["rows"]],
        title="Static analysis over the registered kernel corpus",
    )
    lines = [table]
    for f in result["findings"]:
        marker = "UNEXPECTED" if f["unexpected"] else "expected"
        lines.append(f"  [{marker}] {f['text']}")
    n = result["unexpected_total"]
    lines.append(
        f"lint: {n} unexpected diagnostic(s)" if n else "lint: clean"
    )
    return "\n".join(lines)


def exit_code(result: dict) -> int:
    """Nonzero when any diagnostic is not covered by an
    ``expected_diagnostics`` annotation."""
    return 1 if result["unexpected_total"] else 0
