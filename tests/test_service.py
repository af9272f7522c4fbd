"""The autotuning service end to end: concurrency, determinism, store
sharing, external mode, and the structured error surface.

The headline acceptance test (ISSUE 10): >=4 simultaneous sessions
against one server return results *byte-identical* to in-process
tuning of the same requests, and a second pass serves 100% from the
shared measurement store.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import TuneRequest, run_tune_request
from repro.api.protocol import PROTOCOL_VERSION, SpaceSpec
from repro.autotune.space import Parameter, ParameterSpace
from repro.client import ReproClient, ServiceError, connect
from repro.service.server import ThreadedServer

SMALL_SPACE = SpaceSpec.from_space(ParameterSpace([
    Parameter("TC", (32, 64)),
    Parameter("BC", (48, 96)),
]))

#: four distinct concurrent workloads: different kernels, strategies,
#: and budgets, all tiny enough to finish in seconds
REQUESTS = [
    TuneRequest(kernel="atax", gpu="kepler", size=16,
                search="exhaustive", space=SMALL_SPACE),
    TuneRequest(kernel="bicg", gpu="kepler", size=16,
                search="exhaustive", space=SMALL_SPACE, tenant="team-a"),
    TuneRequest(kernel="matvec2d", gpu="fermi", size=16,
                search="random", budget=6, space=SMALL_SPACE,
                search_args={"seed": 7, "block": 2}),
    TuneRequest(kernel="atax", gpu="fermi", size=16,
                search="exhaustive", space=SMALL_SPACE, tenant="team-b"),
]


def wire_doc(result) -> str:
    """A session result as its canonical wire bytes, session identity
    stripped (ids differ between server and local by construction)."""
    doc = result.to_json()
    doc.pop("session_id")
    return json.dumps(doc, sort_keys=True, allow_nan=False)


@pytest.fixture()
def server(tmp_path):
    with ThreadedServer(cache_dir=tmp_path, drainers=2) as ts:
        yield ts


def test_concurrent_sessions_byte_identical_and_warm(server):
    baselines = [wire_doc(run_tune_request(r)) for r in REQUESTS]

    client = connect(server.url)
    results: dict[int, str] = {}
    errors: list = []

    def drive(i: int) -> None:
        try:
            c = ReproClient(server.url)
            status = c.submit(REQUESTS[i])
            assert status.state in ("pending", "running", "waiting",
                                    "done")
            results[i] = wire_doc(c.wait(status.session_id, timeout=120))
        except Exception as e:  # surfaced below; threads must not hide it
            errors.append((i, e))

    threads = [
        threading.Thread(target=drive, args=(i,))
        for i in range(len(REQUESTS))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180)
    assert not errors, errors
    assert len(results) == len(REQUESTS)
    for i, baseline in enumerate(baselines):
        assert results[i] == baseline, f"session {i} differs from local"

    # warm second pass: every point of every session served from the
    # shared store -- the fleet measures nothing new
    measured_before = client.store_stats().measured
    second = {}
    for i, request in enumerate(REQUESTS):
        status = client.submit(request)
        second[i] = wire_doc(client.wait(status.session_id, timeout=120))
    assert second == dict(enumerate(baselines))
    stats = client.store_stats()
    assert stats.measured == measured_before, (
        f"warm pass measured {stats.measured - measured_before} fresh "
        "points; expected 100% store hits"
    )
    assert stats.served_from_cache > 0
    assert stats.entries > 0


def test_managed_session_compiles_each_key_once(monkeypatch,
                                                cold_module_cache):
    """A managed session measures every round on one Measurer, so each
    compile key it reaches compiles once across the session."""
    from repro.autotune import measure

    compiled = []
    real = measure.compile_module

    def counting(name, specs, options):
        compiled.append(options)
        return real(name, specs, options)

    monkeypatch.setattr(measure, "compile_module", counting)
    request = TuneRequest(
        kernel="atax", gpu="kepler", size=16, search="genetic",
        space=SpaceSpec.from_space(ParameterSpace([
            Parameter("TC", (32, 64, 128)),
            Parameter("BC", (48, 96)),
            Parameter("UIF", (1, 3)),
            Parameter("CFLAGS", ("", "-use_fast_math")),
        ])),
        search_args={"seed": 3, "population": 4, "generations": 3},
    )
    with ThreadedServer(drainers=2) as storeless:
        client = connect(storeless.url)
        status = client.submit(request)
        result = client.wait(status.session_id, timeout=120)
        rounds = client.status(status.session_id).rounds
    assert rounds > 1
    keys = {measure.compile_config_key(m.config)
            for m in result.measurements}
    assert len(compiled) == len(set(compiled)) == len(keys) > 1


def test_handshake_and_listing(server):
    client = connect(server.url)  # connect() performs the handshake
    info = client.hello()
    assert info.protocol == PROTOCOL_VERSION
    status = client.submit(REQUESTS[0])
    client.wait(status.session_id, timeout=120)
    listed = client.sessions()
    assert any(s.session_id == status.session_id for s in listed)
    assert all(s.kernel for s in listed)


def test_external_session_matches_managed(server):
    """A client-measured (external) session reaches the same best point
    as the managed run of the same request."""
    from repro.arch import get_gpu
    from repro.autotune.measure import Measurer as _M
    from repro.kernels import get_benchmark

    request = TuneRequest(kernel="atax", gpu="kepler", size=16,
                          search="exhaustive", mode="external",
                          space=SMALL_SPACE)
    baseline = run_tune_request(
        TuneRequest.from_json(dict(request.to_json(), mode="managed"))
    )

    client = connect(server.url)
    status = client.submit(request)
    assert status.mode == "external"
    assert status.state == "waiting"

    measurer = _M(get_benchmark("atax"), get_gpu("kepler"))
    result = client.run_external(
        status.session_id,
        lambda config: measurer.measure(config, 16).seconds,
    )
    assert result.best_config == baseline.best_config
    assert result.best_value == baseline.best_value
    assert result.history == baseline.history
    assert result.measurements == ()  # the client measured, not the fleet


def test_external_protocol_misuse(server):
    client = connect(server.url)
    status = client.submit(TuneRequest(
        kernel="atax", gpu="kepler", size=16, search="exhaustive",
        mode="external", space=SMALL_SPACE,
    ))
    sid = status.session_id
    batch = client.ask(sid)
    assert not batch.done and batch.configs

    # a second ask before the tell is a structured 409
    with pytest.raises(ServiceError) as e:
        client.ask(sid)
    assert e.value.status == 409
    assert e.value.code == "tell-pending"

    # a tell for the wrong round is rejected
    from repro.api.protocol import TellResult
    bad = TellResult(session_id=sid, round=batch.round + 5,
                     values=tuple(1.0 for _ in batch.configs))
    with pytest.raises(ServiceError) as e:
        ReproClient(server.url)._request(
            "POST", f"/v1/sessions/{sid}/tell", body=bad.to_json()
        )
    assert e.value.status == 409

    # a tell with the wrong batch size is rejected
    with pytest.raises(ServiceError) as e:
        client.tell(batch, [1.0] * (len(batch.configs) + 1))
    assert e.value.status == 400

    # and the correct tell still works after all that
    client.tell(batch, [1.0] * len(batch.configs))


def test_managed_session_rejects_ask_tell(server):
    client = connect(server.url)
    status = client.submit(REQUESTS[0])
    with pytest.raises(ServiceError) as e:
        client.ask(status.session_id)
    assert e.value.status == 409
    assert e.value.code == "managed-session"
    client.wait(status.session_id, timeout=120)


def test_structured_errors(server):
    client = ReproClient(server.url)

    with pytest.raises(ServiceError) as e:
        client.submit(TuneRequest(kernel="no-such-kernel", gpu="kepler",
                                  size=16))
    assert e.value.status == 400
    assert e.value.code == "bad-request"
    assert "registered" in e.value.envelope.message

    with pytest.raises(ServiceError) as e:
        client.submit(TuneRequest(kernel="atax", gpu="no-such-gpu",
                                  size=16))
    assert e.value.status == 400
    assert e.value.code == "bad-request"

    # a document that breaks the protocol is a protocol-error
    body = REQUESTS[0].to_json()
    body["size"] = -1
    with pytest.raises(ServiceError) as e:
        client._request("POST", "/v1/sessions", body=body)
    assert e.value.status == 400
    assert e.value.code == "protocol-error"

    with pytest.raises(ServiceError) as e:
        client.status("s9999-nobody")
    assert e.value.status == 404
    assert e.value.code == "unknown-session"

    with pytest.raises(ServiceError) as e:
        client._request("GET", "/v1/no/such/endpoint")
    assert e.value.status == 404
    assert e.value.code == "not-found"

    with pytest.raises(ServiceError) as e:
        client._request("PUT", "/v1/sessions")
    assert e.value.status == 405
    assert e.value.code == "method-not-allowed"

    # result before the session finishes is a 409, not a hang
    status = client.submit(TuneRequest(
        kernel="atax", gpu="kepler", size=16, search="exhaustive",
        mode="external", space=SMALL_SPACE,
    ))
    with pytest.raises(ServiceError) as e:
        client.result(status.session_id)
    assert e.value.status == 409
    assert e.value.code == "not-done"


def test_version_mismatch_refused(server):
    import http.client

    conn = http.client.HTTPConnection(server.server.host,
                                      server.server.port, timeout=30)
    try:
        conn.request("GET", "/v1/hello",
                     headers={"X-Repro-Protocol": "999.0"})
        response = conn.getresponse()
        doc = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 426
    assert doc["code"] == "protocol-mismatch"

    # body-carried version is enforced the same way
    client = ReproClient(server.url)
    body = REQUESTS[0].to_json()
    body["v"] = "999.0"
    with pytest.raises(ServiceError) as e:
        client._request("POST", "/v1/sessions", body=body)
    assert e.value.status == 426
    assert e.value.code == "protocol-mismatch"


def test_cancel(server):
    client = connect(server.url)
    status = client.submit(TuneRequest(
        kernel="atax", gpu="kepler", size=16, search="exhaustive",
        mode="external", space=SMALL_SPACE,
    ))
    cancelled = client.cancel(status.session_id)
    assert cancelled.state == "cancelled"
    with pytest.raises(ServiceError) as e:
        client.wait(status.session_id, timeout=5)
    assert e.value.status == 409


def test_in_process_tune_facade(tmp_path):
    """repro.api.tune is the same engine-backed path, usable without a
    server (and accepts a cache for warm reuse)."""
    from repro.api import tune

    first = tune("atax", "kepler", 16, space=SMALL_SPACE,
                 cache=tmp_path)
    again = tune("atax", "kepler", 16, space=SMALL_SPACE,
                 cache=tmp_path)
    assert wire_doc(first) == wire_doc(again)
    assert first.evaluations == 4
    assert first.best_config in [dict(c) for c in (
        {"TC": 32, "BC": 48}, {"TC": 32, "BC": 96},
        {"TC": 64, "BC": 48}, {"TC": 64, "BC": 96},
    )]


def test_session_cap_counts_only_unfinished(tmp_path):
    """Finished sessions neither count against max_sessions nor pile up:
    a server capped at 3 serves 5 sequential sessions, each of which can
    still fetch its result, keeps only the newest finished ones, and
    still refuses a 4th unfinished session."""
    with ThreadedServer(cache_dir=tmp_path, max_sessions=3) as ts:
        client = connect(ts.url)
        ids = []
        for _ in range(5):
            status = client.submit(REQUESTS[0])
            ids.append(status.session_id)
            client.wait(status.session_id, timeout=120)
            assert client.result(status.session_id).evaluations == 4
        # 3 finished kept when the 5th arrived, plus the 5th itself
        assert [s.session_id for s in client.sessions()] == ids[1:]

        external = TuneRequest(kernel="atax", gpu="kepler", size=16,
                               mode="external", space=SMALL_SPACE)
        for _ in range(3):
            client.submit(external)  # unfinished until driven
        with pytest.raises(ServiceError) as e:
            client.submit(external)
        assert e.value.status == 409
        assert e.value.code == "too-many-sessions"


@pytest.fixture()
def traced():
    from repro import obs

    obs.enable()
    try:
        yield obs
    finally:
        obs.disable()


def test_failed_session_maintenance_is_counted(tmp_path, traced):
    def broken(_session):
        raise OSError("disk full")

    with ThreadedServer(cache_dir=tmp_path) as ts:
        ts.server.sessions.on_session_finished = broken
        client = connect(ts.url)
        status = client.submit(REQUESTS[0])
        client.wait(status.session_id, timeout=120)  # the session survives
    assert traced.metrics.value("service.errors",
                                where="session-finished") == 1
    errors = [i for i in traced.tracer.instants if i.name == "service.error"]
    assert [i.args["where"] for i in errors] == ["session-finished"]


def test_handler_errors_are_counted(tmp_path, traced):
    async def broken(request):
        raise KeyError("bug")

    with ThreadedServer(cache_dir=tmp_path) as ts:
        ts.server.router.add("GET", "/v1/broken", broken)
        client = ReproClient(ts.url)
        with pytest.raises(ServiceError) as e:
            client._request("GET", "/v1/broken")
    assert e.value.status == 500
    assert e.value.code == "internal-error"
    assert traced.metrics.value("service.errors", where="handler") == 1
    errors = [i for i in traced.tracer.instants if i.name == "service.error"]
    assert [i.args["where"] for i in errors] == ["handler"]
