"""Protocol codec bench: the wire round-trip of the two documents a
service client moves most.

A managed session's client polls :class:`SessionStatus` until the
session is done, then fetches one :class:`SessionResult` carrying every
measurement.  Both round-trips (``to_json`` then ``from_json``) are timed
here so a codec change that slows the service's hot documents shows up
in the benchmark JSON that ``repro.util.benchcheck`` watches.
"""

from repro.api.protocol import (
    ErrorEnvelope,
    MeasurementRecord,
    SessionResult,
    SessionStatus,
)


def _config(i: int) -> dict:
    return {"TC": 32 * (1 + i % 8), "BC": 48 * (1 + i % 2),
            "UIF": 1 + i % 4, "CFLAGS": "-use_fast_math" if i % 3 else ""}


def _result(n: int) -> SessionResult:
    measurements = tuple(
        MeasurementRecord(
            config=_config(i), size=64,
            seconds=float("inf") if i % 7 == 0 else 1e-4 * (1 + i),
            occupancy=0.25 * (1 + i % 4), regs_per_thread=16 + i,
            reg_instructions=1024.0 * i, key=f"{i:064x}",
        )
        for i in range(n)
    )
    return SessionResult(
        session_id="s0001-default",
        best_config=_config(1), best_value=2e-4,
        evaluations=n, space_size=n, full_space_size=4 * n,
        history=tuple((dict(m.config), m.seconds) for m in measurements),
        measurements=measurements,
    )


def _round_trip(message):
    return type(message).from_json(message.to_json())


def test_bench_api_codec_session_result(benchmark):
    result = _result(32)
    back = benchmark(_round_trip, result)
    assert back == result


def test_bench_api_codec_session_status(benchmark):
    status = SessionStatus(
        session_id="s0001-default", state="failed", kernel="atax",
        gpu="kepler", size=64, search="random", mode="managed",
        rounds=3, evaluations=24, best_value=float("inf"),
        best_config=_config(5),
        error=ErrorEnvelope(code="session-failed", message="boom"),
    )
    back = benchmark(_round_trip, status)
    assert back == status
