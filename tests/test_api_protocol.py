"""Protocol round-trip property tests for every ``repro.api`` type.

The contract under test (ISSUE 10 acceptance): every type satisfies
``from_json(to_json(x)) == x`` -- including non-finite floats --
tolerates unknown fields, and rejects missing or major-incompatible
protocol versions.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from repro.api.protocol import (
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    AskBatch,
    ErrorEnvelope,
    MeasurementRecord,
    ProtocolError,
    ServerInfo,
    SessionResult,
    SessionStatus,
    SpaceSpec,
    StoreStats,
    TellResult,
    TuneRequest,
    check_version,
    parse_message,
    parse_version,
)
from repro.autotune.space import Parameter, ParameterSpace

# -- instance generators -----------------------------------------------------
#
# Seeded random instances exercise optional fields, non-finite floats,
# and empty/degenerate collections; each generator returns a fresh
# instance for a given rng.

INF = float("inf")


def _config(rng):
    out = {"TC": rng.choice([32, 64, 128]), "BC": rng.choice([16, 48])}
    if rng.random() < 0.5:
        out["CFLAGS"] = rng.choice(["", "-use_fast_math"])
    if rng.random() < 0.3:
        out["UIF"] = rng.choice([1, 2, 4])
    return out


def _value(rng):
    return rng.choice([
        rng.random() * 1e-3, INF, -INF, 0.0, 1e-30,
    ])


def gen_space(rng):
    return SpaceSpec(parameters=(
        ("TC", tuple(sorted(rng.sample(range(32, 1025, 32), 3)))),
        ("CFLAGS", ("", "-use_fast_math")),
    ))


def gen_tune_request(rng):
    return TuneRequest(
        kernel=rng.choice(["atax", "bicg", "matvec2d"]),
        gpu=rng.choice(["kepler", "fermi"]),
        size=rng.choice([16, 64, 256]),
        search=rng.choice(["exhaustive", "random", "static"]),
        budget=rng.choice([None, 10, 100]),
        use_rule=rng.random() < 0.5,
        mode=rng.choice(["managed", "external"]),
        space=gen_space(rng) if rng.random() < 0.5 else None,
        search_args={"seed": rng.randrange(100)}
        if rng.random() < 0.5 else {},
        tenant=rng.choice(["default", "team-a"]),
    )


def gen_measurement(rng):
    return MeasurementRecord(
        config=_config(rng),
        size=rng.choice([16, 64]),
        seconds=_value(rng),
        occupancy=rng.random(),
        regs_per_thread=rng.randrange(16, 64),
        reg_instructions=rng.choice([rng.random() * 1e6, INF]),
        key=rng.choice([None, "a" * 64]),
    )


def gen_ask_batch(rng):
    return AskBatch(
        session_id=f"s{rng.randrange(100):04d}-default",
        round=rng.randrange(10),
        configs=tuple(_config(rng) for _ in range(rng.randrange(4))),
        remaining=rng.choice([None, 0, 32]),
        done=rng.random() < 0.3,
    )


def gen_tell_result(rng):
    return TellResult(
        session_id="s0001-default",
        round=rng.randrange(10),
        values=tuple(_value(rng) for _ in range(rng.randrange(1, 5))),
    )


def gen_error(rng):
    return ErrorEnvelope(
        code=rng.choice(["bad-request", "not-found"]),
        message="something broke",
        detail=rng.choice([None, "a traceback"]),
    )


def gen_status(rng):
    return SessionStatus(
        session_id="s0001-default",
        state=rng.choice(["pending", "running", "waiting", "done",
                          "failed", "cancelled"]),
        kernel="atax", gpu="kepler", size=64,
        search="random", mode=rng.choice(["managed", "external"]),
        rounds=rng.randrange(5),
        evaluations=rng.randrange(100),
        best_value=rng.choice([None, 1e-4, INF]),
        best_config=_config(rng) if rng.random() < 0.5 else None,
        error=gen_error(rng) if rng.random() < 0.3 else None,
    )


def gen_result(rng):
    history = tuple(
        (_config(rng), _value(rng)) for _ in range(rng.randrange(1, 4))
    )
    return SessionResult(
        session_id="s0001-default",
        best_config=history[0][0],
        best_value=history[0][1],
        evaluations=len(history),
        space_size=rng.randrange(1, 100),
        full_space_size=rng.randrange(100, 200),
        history=history,
        measurements=tuple(
            gen_measurement(rng) for _ in range(rng.randrange(3))
        ),
    )


def gen_store_stats(rng):
    return StoreStats(
        entries=rng.randrange(1000), hits=rng.randrange(1000),
        misses=rng.randrange(1000), corrupt=rng.randrange(3),
        evicted=rng.randrange(10), measured=rng.randrange(500),
        served_from_cache=rng.randrange(500), sessions=rng.randrange(8),
        max_entries=rng.choice([None, 512]),
        schema_version=1,
    )


def gen_server_info(rng):
    return ServerInfo(
        protocol=PROTOCOL_VERSION, server="repro-service/1",
        sessions=rng.randrange(8), store_entries=rng.randrange(1000),
    )


GENERATORS = {
    SpaceSpec: gen_space,
    TuneRequest: gen_tune_request,
    MeasurementRecord: gen_measurement,
    AskBatch: gen_ask_batch,
    TellResult: gen_tell_result,
    ErrorEnvelope: gen_error,
    SessionStatus: gen_status,
    SessionResult: gen_result,
    StoreStats: gen_store_stats,
    ServerInfo: gen_server_info,
}


def _eq(a, b) -> bool:
    """Dataclass equality that treats NaN == NaN (it round-trips)."""
    return _norm(a) == _norm(b)


def _norm(x):
    if isinstance(x, float) and math.isnan(x):
        return "nan-sentinel"
    if isinstance(x, tuple):
        return tuple(_norm(v) for v in x)
    if isinstance(x, dict):
        return {k: _norm(v) for k, v in x.items()}
    if hasattr(x, "__dataclass_fields__"):
        return {
            f: _norm(getattr(x, f)) for f in x.__dataclass_fields__
        }
    return x


@pytest.mark.parametrize("cls", list(GENERATORS), ids=lambda c: c.TYPE)
def test_round_trip(cls):
    """from_json(to_json(x)) == x for 50 seeded random instances, and
    the wire document survives strict JSON (allow_nan=False)."""
    rng = random.Random(f"round-trip/{cls.TYPE}")
    for _ in range(50):
        x = GENERATORS[cls](rng)
        doc = x.to_json()
        assert doc["type"] == cls.TYPE
        assert doc["v"] == PROTOCOL_VERSION
        wire = json.dumps(doc, allow_nan=False)  # raises on a raw inf/nan
        back = cls.from_json(json.loads(wire))
        assert _eq(back, x), (x, back)


@pytest.mark.parametrize("cls", list(GENERATORS), ids=lambda c: c.TYPE)
def test_unknown_fields_tolerated(cls):
    """A newer peer's extra fields parse clean (additive evolution)."""
    rng = random.Random(f"unknown/{cls.TYPE}")
    x = GENERATORS[cls](rng)
    doc = x.to_json()
    doc["some_future_field"] = {"nested": [1, 2, 3]}
    doc["another"] = "ignored"
    assert _eq(cls.from_json(doc), x)


@pytest.mark.parametrize("cls", list(GENERATORS), ids=lambda c: c.TYPE)
def test_version_enforcement(cls):
    """Missing and major-mismatched versions are rejected; a newer minor
    under our major is accepted."""
    rng = random.Random(f"version/{cls.TYPE}")
    x = GENERATORS[cls](rng)
    doc = x.to_json()

    major, minor = parse_version(PROTOCOL_VERSION)

    missing = dict(doc)
    del missing["v"]
    with pytest.raises(ProtocolError, match="protocol version"):
        cls.from_json(missing)

    wrong_major = dict(doc, v=f"{major + 1}.0")
    with pytest.raises(ProtocolError, match="incompatible"):
        cls.from_json(wrong_major)

    newer_minor = dict(doc, v=f"{major}.{minor + 3}")
    if cls is ServerInfo:
        # ServerInfo also validates its payload's protocol field; only
        # the envelope version is under test here
        newer_minor["protocol"] = PROTOCOL_VERSION
    assert _eq(cls.from_json(newer_minor), x if cls is not ServerInfo
               else x)


WIRE_FIXTURE = Path(__file__).parent / "fixtures" / "protocol_wire.json"


@pytest.mark.parametrize("cls", list(GENERATORS), ids=lambda c: c.TYPE)
def test_wire_format_pinned(cls):
    """The committed documents (10 seeded instances per type) are the
    wire format: ``to_json`` reproduces each byte for byte, key order
    included, and ``from_json`` reads each back to the instance."""
    pinned = json.loads(WIRE_FIXTURE.read_text())[cls.TYPE]
    rng = random.Random(f"wire/{cls.TYPE}")
    for doc in pinned:
        x = GENERATORS[cls](rng)
        assert json.dumps(x.to_json(), allow_nan=False) == json.dumps(doc)
        assert _eq(cls.from_json(doc), x)


def test_version_parsing():
    assert parse_version("1.0") == (1, 0)
    assert parse_version("12.34") == (12, 34)
    for bad in ("1", "1.0.0", "a.b", "", "1.x", None, 1.0):
        with pytest.raises(ProtocolError):
            parse_version(bad)
    check_version(PROTOCOL_VERSION)
    with pytest.raises(ProtocolError):
        check_version(None)


def test_wrong_type_field_rejected():
    doc = gen_ask_batch(random.Random(0)).to_json()
    doc["type"] = "tune-request"
    with pytest.raises(ProtocolError, match="expected"):
        AskBatch.from_json(doc)


def test_parse_message_dispatch():
    rng = random.Random("dispatch")
    for cls, gen in GENERATORS.items():
        x = gen(rng)
        assert _eq(parse_message(x.to_json()), x)
    with pytest.raises(ProtocolError, match="unknown message type"):
        parse_message({"type": "no-such-type", "v": PROTOCOL_VERSION})
    with pytest.raises(ProtocolError):
        parse_message(["not", "an", "object"])


def test_non_finite_floats_travel_as_strings():
    m = MeasurementRecord(
        config={"TC": 32}, size=16, seconds=INF, occupancy=0.5,
        regs_per_thread=20, reg_instructions=float("nan"),
    )
    doc = m.to_json()
    assert doc["seconds"] == "Infinity"
    assert doc["reg_instructions"] == "NaN"
    back = MeasurementRecord.from_json(doc)
    assert back.seconds == INF
    assert math.isnan(back.reg_instructions)
    # config values are never float-decoded: a literal string survives
    r = TellResult(session_id="s", round=0, values=(-INF,))
    assert TellResult.from_json(r.to_json()).values == (-INF,)


def test_space_spec_round_trips_through_parameter_space():
    space = ParameterSpace([
        Parameter("TC", (32, 64, 128)),
        Parameter("CFLAGS", ("", "-use_fast_math")),
    ])
    spec = SpaceSpec.from_space(space)
    rebuilt = spec.to_space()
    assert [(p.name, tuple(p.values)) for p in rebuilt.parameters] == \
        [(p.name, tuple(p.values)) for p in space.parameters]
    assert list(rebuilt) == list(space)


def test_tune_request_validation():
    base = gen_tune_request(random.Random(1)).to_json()
    for field, bad in [
        ("size", 0), ("size", -4), ("budget", 0),
        ("mode", "telepathic"), ("kernel", 7),
        ("search_args", {"k": [1, 2]}),
    ]:
        doc = dict(base, **{field: bad})
        with pytest.raises(ProtocolError):
            TuneRequest.from_json(doc)


def test_measurement_record_matches_variant_measurement():
    from repro.autotune.measure import VariantMeasurement

    vm = VariantMeasurement(
        config={"TC": 64, "BC": 48}, size=32, seconds=1.5e-4,
        occupancy=0.75, regs_per_thread=24, reg_instructions=1024.0,
    )
    rec = MeasurementRecord.from_measurement(vm, key="k")
    assert rec.key == "k"
    assert rec.to_measurement() == vm
    assert MeasurementRecord.from_json(rec.to_json()).to_measurement() == vm


def test_registry_covers_every_type():
    assert set(MESSAGE_TYPES.values()) == set(GENERATORS)
