"""The autotuning service end to end: concurrency, determinism, store
sharing, external mode, and the structured error surface.

The headline acceptance test (ISSUE 10): >=4 simultaneous sessions
against one server return results *byte-identical* to in-process
tuning of the same requests, and a second pass serves 100% from the
shared measurement store.
"""

from __future__ import annotations

import json
import os
import threading
import time
from types import SimpleNamespace

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


@pytest.mark.parametrize("sent", [
    b"GET /v1/hello HTTP/1.1\r\nHost: local",  # half a request head
    b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"a",
], ids=["head", "body"])
def test_stalled_client_gets_408(server, monkeypatch, sent):
    """A client that stops mid-head or mid-body is answered 408 and its
    connection closed, instead of holding it forever."""
    import socket

    from repro.service import http

    monkeypatch.setattr(http, "REQUEST_TIMEOUT_S", 0.2)
    address = (server.server.host, server.server.port)
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(sent)
        received = b""
        while chunk := sock.recv(65536):  # until the server closes
            received += chunk
    head, body = received.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
    assert b"Connection: close" in head
    assert json.loads(body)["code"] == "request-timeout"


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


def test_cancelled_session_refuses_a_tell(traced, server):
    """A batch asked before the cancel cannot be told after it: the
    session stays cancelled, with no round recorded."""
    client = connect(server.url)
    sid = client.submit(TuneRequest(
        kernel="atax", gpu="kepler", size=16, search="exhaustive",
        mode="external", space=SMALL_SPACE,
    )).session_id
    batch = client.ask(sid)
    client.cancel(sid)
    with pytest.raises(ServiceError) as e:
        client.tell(batch, [1.0] * len(batch.configs))
    assert (e.value.status, e.value.code) == (409, "no-pending-ask")
    status = client.status(sid)
    assert (status.state, status.rounds) == ("cancelled", 0)
    assert not [s for s in traced.tracer.spans if s.name == "round"]


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


def test_capped_store_stays_within_its_cap(tmp_path):
    """The store trims itself on every put, so a capped server holds its
    cap after every session with no pass between sessions; a flush only
    checkpoints."""
    with ThreadedServer(cache_dir=tmp_path, max_entries=3) as ts:
        client = connect(ts.url)
        for request in REQUESTS[:2]:  # 8 distinct points
            client.wait(client.submit(request).session_id, timeout=120)
            assert client.store_stats().entries <= 3
        stats = client.flush_store()
    assert stats.entries <= 3
    assert stats.max_entries == 3
    assert stats.evicted == 5


@pytest.fixture()
def traced():
    from repro import obs

    obs.enable()
    try:
        yield obs
    finally:
        obs.disable()


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


def test_external_rounds_run_from_ask_to_tell(tmp_path, traced):
    """A traced external session records one ``round`` span per tell,
    under its session span, from the ask that handed out the batch to
    the tell that answered it (the client's measuring included)."""
    from repro.obs.trace import ROOT, child_id

    measuring_s = 0.1
    with ThreadedServer(cache_dir=tmp_path) as ts:
        client = connect(ts.url)
        sid = client.submit(TuneRequest(
            kernel="atax", gpu="kepler", size=16, search="random",
            budget=4, mode="external", space=SMALL_SPACE,
            search_args={"seed": 7, "block": 2},
        )).session_id
        asks = []
        while True:
            before = time.time()
            batch = client.ask(sid)
            if batch.done:
                break
            asks.append((before, time.time()))
            time.sleep(measuring_s)
            client.tell(batch, [1.0] * len(batch.configs))
    rounds = sorted((s for s in traced.tracer.spans if s.name == "round"),
                    key=lambda s: s.key)
    assert [s.key for s in rounds] == list(range(len(asks)))
    assert len(asks) == 2
    for span, (before, after) in zip(rounds, asks):
        assert span.parent_id == child_id(ROOT, "session", sid)
        assert before <= span.start_s <= after
        assert span.dur_s >= measuring_s


# ---------------------------------------------------------------------------
# the fleet: a thread pool of engines


def wait_until(predicate, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@pytest.fixture()
def gated(tmp_path, monkeypatch):
    """A one-drainer server whose measurements wait at a gate: every
    ``Measurer.measure_many`` call records its kernel in
    ``gate.kernels``, then holds until ``gate.opened`` is set."""
    from repro.autotune.measure import Measurer

    real = Measurer.measure_many
    gate = SimpleNamespace(kernels=[], opened=threading.Event())

    def measure_many(self, items):
        gate.kernels.append(self.benchmark.name)
        gate.opened.wait(timeout=60)
        return real(self, items)

    monkeypatch.setattr(Measurer, "measure_many", measure_many)
    ts = ThreadedServer(cache_dir=tmp_path, drainers=1).start()
    try:
        yield ts, gate
    finally:
        gate.opened.set()
        ts.stop()


def test_stop_waits_for_the_running_batch(gated, monkeypatch):
    """Stopping the server lets a running batch finish: its checkpoint
    lands in the store before the store closes."""
    from repro.engine.cache import CacheStore

    ts, gate = gated
    events: list = []
    real_put, real_close = CacheStore.put_many, CacheStore.close

    def put_many(self, items):
        try:
            real_put(self, items)
        except Exception as e:
            events.append(type(e).__name__)
            raise
        events.append("put")

    def close(self):
        events.append("close")
        real_close(self)

    monkeypatch.setattr(CacheStore, "put_many", put_many)
    monkeypatch.setattr(CacheStore, "close", close)
    connect(ts.url).submit(REQUESTS[0])
    wait_until(lambda: gate.kernels)
    stopper = threading.Thread(target=ts.stop)
    stopper.start()
    time.sleep(0.5)
    gate.opened.set()
    stopper.join(timeout=60)
    assert not stopper.is_alive()
    wait_until(lambda: len(events) >= 2, timeout=10)
    assert events == ["put", "close"]


def test_cancelled_session_queued_batch_is_never_measured(gated):
    ts, gate = gated
    fleet = ts.server.fleet
    submitted = []
    real = fleet.measure

    async def measure(measurer, pairs, parent_span_id=""):
        submitted.append(measurer.benchmark.name)
        return await real(measurer, pairs, parent_span_id)

    fleet.measure = measure
    client = connect(ts.url)
    first = client.submit(REQUESTS[0])  # atax: holds the one drainer
    wait_until(lambda: gate.kernels == ["atax"])
    queued = client.submit(REQUESTS[1])  # bicg: waits behind it
    wait_until(lambda: submitted == ["atax", "bicg"])
    client.cancel(queued.session_id)
    wait_until(
        lambda: client.status(queued.session_id).state == "cancelled"
    )
    gate.opened.set()
    # one drainer runs jobs in order: once a later session is done, the
    # cancelled one's batch would have run
    last = client.submit(REQUESTS[2])
    for status in (first, last):
        client.wait(status.session_id, timeout=120)
    assert "bicg" not in gate.kernels
    assert gate.kernels[0] == "atax" and "matvec2d" in gate.kernels


def test_cancel_answers_cancelled_at_once(gated):
    """Cancelling a managed session whose batch is queued answers
    ``cancelled``, a status read right after agrees, and the queued
    batch is still never measured."""
    ts, gate = gated
    fleet = ts.server.fleet
    submitted = []
    real = fleet.measure

    async def measure(measurer, pairs, parent_span_id=""):
        submitted.append(measurer.benchmark.name)
        return await real(measurer, pairs, parent_span_id)

    fleet.measure = measure
    client = connect(ts.url)
    first = client.submit(REQUESTS[0])  # atax: holds the one drainer
    wait_until(lambda: gate.kernels == ["atax"])
    queued = client.submit(REQUESTS[1])  # bicg: waits behind it
    wait_until(lambda: submitted == ["atax", "bicg"])
    assert client.cancel(queued.session_id).state == "cancelled"
    assert client.status(queued.session_id).state == "cancelled"
    gate.opened.set()
    # one drainer runs jobs in order: once a later session is done, the
    # cancelled one's batch would have run
    last = client.submit(REQUESTS[2])
    for status in (first, last):
        client.wait(status.session_id, timeout=120)
    assert "bicg" not in gate.kernels


def test_queue_depth_counts_jobs_not_yet_started(traced, gated):
    ts, gate = gated

    def depth():
        return traced.metrics.value("service.queue_depth")

    client = connect(ts.url)
    running = client.submit(REQUESTS[0])
    wait_until(lambda: gate.kernels and depth() == 0)
    cancelled = client.submit(REQUESTS[1])
    queued = client.submit(REQUESTS[2])
    wait_until(lambda: depth() == 2)
    client.cancel(cancelled.session_id)
    wait_until(lambda: depth() == 1)
    gate.opened.set()
    for status in (running, queued):
        client.wait(status.session_id, timeout=120)
    assert depth() == 0


def test_measurement_runs_on_the_fleet_threads(monkeypatch):
    """Batches run on the fleet's own threads, never on the event
    loop's default executor, where strategy ``reset``/``ask`` run."""
    from repro.autotune.measure import Measurer

    real = Measurer.measure_many
    threads = set()

    def measure_many(self, items):
        threads.add(threading.current_thread().name)
        return real(self, items)

    monkeypatch.setattr(Measurer, "measure_many", measure_many)
    with ThreadedServer(drainers=2) as ts:
        client = connect(ts.url)
        ids = [client.submit(r).session_id for r in REQUESTS]
        for sid in ids:
            client.wait(sid, timeout=120)
    assert 0 < len(threads) <= 2
    assert all(name.startswith("fleet-drainer") for name in threads)


def test_fleet_totals_hold_under_contention():
    """More drainers than cores and a tiny switch interval: results come
    back in request order, the fleet's totals count every point once,
    and the queue-depth gauge drains to zero."""
    import asyncio
    import sys

    from repro import obs
    from repro.arch import get_gpu
    from repro.autotune.measure import Measurer
    from repro.kernels import get_benchmark
    from repro.service.fleet import WorkerFleet

    configs = list(ParameterSpace([
        Parameter("TC", (32, 64, 128, 256)),
        Parameter("BC", (48, 96)),
    ]))
    jobs = [
        [(configs[(i + j) % len(configs)], 16) for j in range(3)]
        for i in range(24)
    ]

    async def run(fleet):
        measurer = Measurer(get_benchmark("atax"), get_gpu("kepler"))
        try:
            return await asyncio.wait_for(asyncio.gather(
                *(fleet.measure(measurer, pairs) for pairs in jobs)
            ), timeout=120)
        finally:
            await fleet.stop()

    fleet = WorkerFleet(drainers=6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    obs.enable(trace=False)
    try:
        results = asyncio.run(run(fleet))
        depth = obs.metrics.value("service.queue_depth")
    finally:
        obs.disable()
        sys.setswitchinterval(interval)
    for pairs, measurements in zip(jobs, results):
        assert [m.config for m in measurements] == [c for c, _ in pairs]
    assert fleet.total_measured == sum(map(len, jobs))
    assert fleet.total_hits == 0
    assert depth == 0


def test_stop_closes_open_connections(tmp_path, caplog):
    """Stopping the server ends a connection idle mid-request: the
    client reads EOF, and no connection task outlives the loop."""
    import gc
    import logging
    import socket

    ts = ThreadedServer(cache_dir=tmp_path).start()
    try:
        address = (ts.server.host, ts.server.port)
        sock = socket.create_connection(address, timeout=10)
        # one whole request first, so the connection is being served
        sock.sendall(b"GET /v1/hello HTTP/1.1\r\nHost: local\r\n\r\n")
        received = b""
        while b"}" not in received:
            received += sock.recv(65536)
        sock.sendall(b"GET /v1/hello HTTP/1.1\r\nHost: local")  # half a head
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            started = time.monotonic()
            ts.stop()
            stopped = time.monotonic() - started
            sock.settimeout(2)
            assert sock.recv(65536) == b""
            gc.collect()
    finally:
        sock.close()
        ts.stop()
    assert stopped < 5
    assert not [r for r in caplog.records
                if "Task was destroyed" in r.getMessage()]


def test_connections_beyond_the_cap_get_503(tmp_path, monkeypatch):
    """A connection past ``MAX_CONNECTIONS`` is answered 503 and closed;
    once an idle one leaves, a new client is served again."""
    import socket

    from repro.service import server as server_module

    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
    with ThreadedServer(cache_dir=tmp_path) as ts:
        held = ts.server._connections
        address = (ts.server.host, ts.server.port)
        idle = [socket.create_connection(address, timeout=10)
                for _ in range(2)]
        try:
            wait_until(lambda: len(held) == 2, timeout=10)
            with socket.create_connection(address, timeout=10) as sock:
                received = b""
                while chunk := sock.recv(65536):  # until the server closes
                    received += chunk
            head, body = received.split(b"\r\n\r\n", 1)
            assert head.startswith(b"HTTP/1.1 503 Service Unavailable\r\n")
            assert b"Connection: close" in head
            assert json.loads(body)["code"] == "too-many-connections"

            # the server drops a connection when it reads the client's
            # EOF, so wait for that rather than for a fixed time
            idle.pop().close()
            wait_until(lambda: len(held) < 2, timeout=10)
            assert ReproClient(ts.url).hello().protocol == PROTOCOL_VERSION
        finally:
            for sock in idle:
                sock.close()


# ---------------------------------------------------------------------------
# kept connections: reuse, and never applying a request twice


def test_a_client_keeps_its_connections(tmp_path, traced):
    """A client sends a thread's requests over one kept connection, and
    four threads sharing a client use at most four and get in-process
    results; closing a client ends its connections on the server too."""
    baselines = [wire_doc(run_tune_request(r)) for r in REQUESTS]

    def served():
        return (traced.metrics.value("service.connections"),
                traced.metrics.value("service.requests"))

    with ThreadedServer(cache_dir=tmp_path, drainers=2) as ts:
        held = ts.server._connections
        with ReproClient(ts.url) as client:
            for _ in range(20):
                client.hello()
            assert len(held) == 1
            assert served() == (1, 20)
        wait_until(lambda: not held, timeout=10)

        shared = ReproClient(ts.url)
        results: dict[int, str] = {}
        errors: list = []

        def drive(i: int) -> None:
            try:
                sid = shared.submit(REQUESTS[i]).session_id
                results[i] = wire_doc(shared.wait(sid, timeout=120))
            except Exception as e:  # surfaced below
                errors.append((i, e))

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(REQUESTS))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not errors, errors
        assert [results.get(i) for i in range(len(REQUESTS))] == baselines
        connections, requests = served()
        assert 1 < connections <= 1 + len(REQUESTS) < requests
        assert len(held) == connections - 1
        shared.close()
        wait_until(lambda: not held, timeout=10)


def test_a_forked_client_opens_its_own_connections(server, traced):
    """A client whose process id changed (a forked child) closes its
    copies of the kept sockets and connects afresh."""
    client = ReproClient(server.url)
    client.hello()
    [kept] = client._idle
    client._pid = -1  # what a forked child's client sees
    client.hello()
    assert kept.sock is None and client._idle != [kept]
    assert traced.metrics.value("service.connections") == 2


def _external_session(client) -> str:
    return client.submit(TuneRequest(
        kernel="atax", gpu="kepler", size=16, search="exhaustive",
        mode="external", space=SMALL_SPACE,
    )).session_id


def test_threads_sharing_a_client_never_share_a_connection(server):
    """Eight threads, more than a small host has cores, poll their own
    sessions through one client while the interpreter switches threads
    as often as it can: every answer names the poller's session, and
    the client keeps each of its connections once, one per server
    connection, until it closes them."""
    import sys

    client = ReproClient(server.url)
    sids = [_external_session(client) for _ in range(8)]
    errors: list = []

    def poll(sid: str) -> None:
        try:
            for _ in range(25):
                assert client.status(sid).session_id == sid
        except Exception as e:  # surfaced below
            errors.append(e)

    threads = [threading.Thread(target=poll, args=(sid,)) for sid in sids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    kept = {id(conn) for conn in client._idle}
    assert 0 < len(kept) == len(client._idle) <= len(sids)
    assert len(server.server._connections) == len(kept)
    client.close()
    wait_until(lambda: not server.server._connections, timeout=10)


def test_a_tell_after_an_idle_408_is_applied_once(server, monkeypatch,
                                                  traced):
    """The server answers 408 on a kept connection left idle past its
    request timeout and closes it; the client's next request, a tell,
    goes over a fresh connection and is applied once."""
    from repro.service import http

    monkeypatch.setattr(http, "REQUEST_TIMEOUT_S", 0.2)
    client = ReproClient(server.url)
    sid = _external_session(client)
    batch = client.ask(sid)
    before = client.status(sid)
    wait_until(lambda: not server.server._connections, timeout=10)
    connections = traced.metrics.value("service.connections")
    after = client.tell(batch, [1.0] * len(batch.configs))
    assert traced.metrics.value("service.connections") == connections + 1
    assert after.rounds == client.status(sid).rounds == before.rounds + 1
    assert after.evaluations == before.evaluations + len(batch.configs)


def test_a_408_on_a_kept_connection_is_sent_again(server, monkeypatch,
                                                  traced):
    """A request sent on a kept connection just as the server answered
    its idle 408 (the check before reuse saw nothing yet) is sent again
    on a fresh connection: the server read no request, so no handler
    ran."""
    from repro import client as client_module
    from repro.service import http

    monkeypatch.setattr(http, "REQUEST_TIMEOUT_S", 0.2)
    monkeypatch.setattr(client_module, "select", SimpleNamespace(
        select=lambda *fds: ([], [], [])))
    client = ReproClient(server.url)
    sid = _external_session(client)
    wait_until(lambda: not server.server._connections, timeout=10)
    assert client.status(sid).session_id == sid
    assert traced.metrics.value("service.connections") == 2


def _answered_then_dropped(monkeypatch, name: str) -> list:
    """Wrap ``Server.<name>`` so that its first call runs and then drops
    the connection unanswered; returns the list of calls made."""
    from repro.service.server import Server

    real = getattr(Server, name)
    calls = []

    async def wrapped(self, request, **params):
        calls.append(params)
        result = await real(self, request, **params)
        if len(calls) == 1:
            raise ConnectionResetError("dropped after the handler ran")
        return result

    monkeypatch.setattr(Server, name, wrapped)
    return calls


def test_a_post_whose_answer_is_lost_is_not_sent_again(tmp_path,
                                                       monkeypatch):
    """A tell that the server applied but never answered raises on the
    client instead of being sent again, and the session counts its
    round once; so does a submit, which makes one session."""
    told = _answered_then_dropped(monkeypatch, "_tell")
    submitted = _answered_then_dropped(monkeypatch, "_submit")
    with ThreadedServer(cache_dir=tmp_path) as ts:
        client = ReproClient(ts.url)
        client.hello()  # the submit then goes over a kept connection
        with pytest.raises(ConnectionError):
            client.submit(REQUESTS[0])
        assert len(submitted) == 1
        assert len(client.sessions()) == 1

        sid = _external_session(client)
        batch = client.ask(sid)
        with pytest.raises(ConnectionError):
            client.tell(batch, [1.0] * len(batch.configs))
        assert len(told) == 1
        status = client.status(sid)
        assert (status.rounds, status.evaluations) == (1, len(batch.configs))


def test_a_get_whose_answer_is_lost_is_sent_again(tmp_path, monkeypatch):
    """A status poll that the server dropped unanswered on a kept
    connection is sent once more, on a fresh one, and answered."""
    polled = _answered_then_dropped(monkeypatch, "_status")
    with ThreadedServer(cache_dir=tmp_path) as ts:
        client = ReproClient(ts.url)
        sid = _external_session(client)
        assert client.status(sid).session_id == sid
        assert polled == [{"sid": sid}] * 2


# ---------------------------------------------------------------------------
# soak: a long mixed run under injected faults


SOAK_SPACE = SpaceSpec.from_space(ParameterSpace([
    Parameter("TC", (32, 64, 128, 256)),
    Parameter("BC", (48, 96)),
]))

RSS_GROWTH_MB = 16.0
"""How much RSS may grow from 30% of the soak to its end.  By 30% every
problem of the pool has been tuned with every strategy, so the
process's caches (modules, count forms, analyzer reports) are full, and
the store and the session list are held at their caps.  What may still
grow is memory outside them: SQLite's page cache, by default at most
2,000 KiB per connection, on each server thread that opens one (two
fleet threads and the loop's), and the allocator's per-thread arenas.
16 MiB lets those three page caches fill from empty (about 6 MiB) and
leaves 10 MiB for the arenas."""


def _rss_mb() -> float | None:
    """This process's resident set, where ``/proc`` reports it."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
    except FileNotFoundError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def test_soak_mixed_sessions_under_chaos(tmp_path):
    """A hundred mixed sessions from two clients against a store capped
    well below the points they touch and a small session cap, every
    tenth managed session cancelled, under faults that each recover on
    retry: the caps hold after every session, RSS stays flat once every
    problem has been tuned, and every finished managed session is
    byte-identical to in-process tuning."""
    from repro.arch import get_gpu
    from repro.autotune.measure import Measurer
    from repro.engine import chaos
    from repro.kernels import get_benchmark

    cap, max_sessions, clients, sessions = 12, 4, 2, 100
    problems = [(k, g) for k in ("atax", "bicg", "matvec2d")
                for g in ("kepler", "fermi")]  # 48 points, 4x the cap
    searches = [("random", {"seed": 1}), ("genetic", {"seed": 2}),
                ("annealing", {"seed": 3}), ("static", {})]
    plan = []
    for i in range(sessions):
        kernel, gpu = problems[i % len(problems)]
        search, args = searches[i // len(problems) % len(searches)]
        plan.append(TuneRequest(
            kernel=kernel, gpu=gpu, size=16, search=search, budget=4,
            mode="external" if i % 5 in (1, 3) else "managed",
            space=SOAK_SPACE, search_args=args,
        ))
    managed = [i for i, r in enumerate(plan) if r.mode == "managed"]
    cancelled = set(managed[9::10])

    cursor = iter(range(sessions))
    lock = threading.Lock()
    finished: dict[int, str] = {}
    rss: list = []
    errors: list = []
    ran = [0]

    def drive() -> None:
        client = ReproClient(ts.url, timeout=60)
        measurers: dict = {}
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                request = plan[i]
                sid = client.submit(request).session_id
                if request.mode == "external":
                    key = (request.kernel, request.gpu)
                    if key not in measurers:
                        measurers[key] = Measurer(get_benchmark(key[0]),
                                                  get_gpu(key[1]))
                    client.run_external(sid, lambda c, m=measurers[key]:
                                        m.measure(c, request.size).seconds)
                elif i in cancelled:
                    client.status(sid)
                    assert client.cancel(sid).state in ("cancelled", "done")
                else:
                    finished[i] = wire_doc(client.wait(sid, timeout=60,
                                                       poll_s=0.01))
                assert client.store_stats().entries <= cap
                # finished sessions are trimmed to the cap at each submit,
                # and each client holds at most one more
                assert len(client.sessions()) <= max_sessions + clients
                with lock:
                    ran[0] += 1
                    if ran[0] % (sessions // 10) == 0:
                        rss.append(_rss_mb())
        except Exception as e:  # surfaced below; threads must not hide it
            errors.append(e)

    # every measured shard's first attempt fails, and its retry recovers
    spec = chaos.ChaosSpec(raise_rate=1.0, attempts=1)
    with ThreadedServer(cache_dir=tmp_path, max_entries=cap,
                        max_sessions=max_sessions) as ts:
        with chaos.injected(spec):
            threads = [threading.Thread(target=drive)
                       for _ in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        engines = ts.server.fleet._engines
        retries = sum(e.total_retries for e in engines)
        assert retries == sum(e.total_recovered for e in engines) > 0
        assert sum(e.total_failures for e in engines) == 0
        assert ts.server.store.evicted > 0

    assert ran[0] == sessions
    assert len(finished) == len(managed) - len(cancelled)
    local: dict = {}
    for i, doc in finished.items():
        key = json.dumps(plan[i].to_json(), sort_keys=True)
        if key not in local:
            local[key] = wire_doc(run_tune_request(plan[i]))
        assert doc == local[key], f"session {i} differs from in-process"
    print("soak RSS (MB) at each tenth:",
          [None if r is None else round(r, 1) for r in rss])
    if rss[0] is not None:
        assert rss[-1] - rss[2] <= RSS_GROWTH_MB, rss
