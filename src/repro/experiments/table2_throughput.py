"""Table II: instruction throughput per number of cycles."""

from __future__ import annotations

from repro.arch.throughput import THROUGHPUT_BY_SM, InstrCategory
from repro.util.tables import ascii_table


def run() -> dict:
    sms = sorted(THROUGHPUT_BY_SM)
    rows = []
    for cat in InstrCategory:
        rows.append(
            [cat.value, cat.pipe.value]
            + [THROUGHPUT_BY_SM[sm].ipc(cat) for sm in sms]
        )
    return {"sms": sms, "rows": rows}


def render(result: dict) -> str:
    headers = ["Category", "Class"] + [f"SM{sm}" for sm in result["sms"]]
    return ascii_table(
        headers, result["rows"],
        title="Table II: instruction throughput (IPC) per SM version",
    )
