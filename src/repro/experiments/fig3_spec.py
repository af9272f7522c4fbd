"""Fig. 3 / Table III: the performance-tuning specification and its space."""

from __future__ import annotations

from repro.autotune.spec import DEFAULT_SPEC_TEXT, parse_perf_tuning
from repro.util.tables import ascii_table


def run() -> dict:
    space = parse_perf_tuning(DEFAULT_SPEC_TEXT)
    return {
        "text": DEFAULT_SPEC_TEXT,
        "parameters": [
            (p.name, len(p), str(list(p.values))[:60]) for p in space.parameters
        ],
        "size": len(space),
    }


def render(result: dict) -> str:
    out = ["Fig. 3: performance tuning specification in Orio", "",
           result["text"]]
    out.append(ascii_table(
        ["Param", "Options", "Values"],
        result["parameters"],
        title="Table III: tuning feature space",
        align_right=False,
    ))
    out.append(f"\nTotal variants: {result['size']}")
    return "\n".join(out)
