"""Full socket round-trips against a real server thread."""

import json
import socket

import pytest

from repro.serve import ServeClient, ServeError, ServeServer, ServerThread
from repro.serve.protocol import MAX_LINE_BYTES

from .conftest import job_payload, make_engine

pytestmark = pytest.mark.serve


def test_round_trip_under_paused_clock(live_server):
    host, port, _ = live_server
    with ServeClient(host=host, port=port) as client:
        assert client.ping()["ok"] is True
        for i in range(3):
            response = client.submit(job_payload(f"job-{i}"))
            assert response["job_id"] == f"job-{i}"
        status = client.status()
        assert status["paused"] is True
        assert status["jobs_submitted"] == 3
        # Deep-paused: everything staged, nothing admitted yet.
        assert status["job_counts"]["accepted"] == 3
        clock = client.clock("step", to_s=30.0)
        assert clock["paused"] is True
        metrics = client.metrics()
        assert metrics["serve"]["rejected_total"] == 0


def test_malformed_requests_answer_without_killing_the_connection(
    live_server,
):
    host, port, _ = live_server
    with socket.create_connection((host, port), timeout=10) as sock:
        stream = sock.makefile("rwb")
        hello = json.loads(stream.readline())
        assert hello["kind"] == "repro-serve"

        def roundtrip(raw: bytes) -> dict:
            stream.write(raw + b"\n")
            stream.flush()
            return json.loads(stream.readline())

        assert roundtrip(b"{not json")["error"] == "bad_json"
        assert roundtrip(b'{"op": "teleport"}')["error"] == "unknown_op"
        assert roundtrip(b'{"op": "submit"}')["error"] == "invalid_request"
        big = json.dumps(
            {"op": "ping", "pad": "x" * (MAX_LINE_BYTES + 16)}
        ).encode()
        assert roundtrip(big)["error"] == "too_large"
        # The connection survived all of it.
        assert roundtrip(b'{"op": "ping"}')["ok"] is True


def test_duplicate_and_overflow_reject_over_the_wire(live_server):
    host, port, _ = live_server
    with ServeClient(host=host, port=port) as client:
        client.submit(job_payload("job-0"))
        with pytest.raises(ServeError) as err:
            client.submit(job_payload("job-0"))
        assert err.value.reason == "duplicate_id"
        for i in range(1, 8):  # fill the queue (limit 8)
            client.submit(job_payload(f"job-{i}"))
        with pytest.raises(ServeError) as err:
            client.submit(job_payload("job-8"))
        assert err.value.reason == "queue_full"


def test_graceful_drain_finishes_backlog_then_stops():
    server = ServeServer(make_engine(queue_limit=8), port=0)
    thread = ServerThread(server)
    host, port = thread.start()
    try:
        with ServeClient(host=host, port=port) as client:
            for i in range(4):
                client.submit(job_payload(f"job-{i}"))
            client.shutdown(drain=True)
    finally:
        thread.join()
    engine = server.engine
    assert engine.stopped
    assert engine.jobs_finished == 4
    assert engine.status()["job_counts"]["finished"] == 4


def test_subscribe_streams_the_event_log(live_server):
    host, port, _ = live_server
    with ServeClient(host=host, port=port) as client:
        client.submit(job_payload("job-0"))
        tail = client.tail()
        header = next(tail)
        assert header == {"v": 1, "kind": "repro-events"}
        replayed = next(tail)
        assert replayed["etype"] == "service_start"


def test_a_subscriber_leaving_does_not_cut_another_short():
    server = ServeServer(make_engine(), port=0)
    tracer = server.engine.tracer
    thread = ServerThread(server)
    host, port = thread.start()
    # No subscriber yet: the only sink is the engine's own.
    assert tracer._sinks == [server.engine._on_event]
    try:
        with ServeClient(host=host, port=port) as client:
            client.submit(job_payload("job-0"))
            client.clock("step", to_s=30.0)
            leaving, staying = client.tail(), client.tail()
            header = {"v": 1, "kind": "repro-events"}
            assert next(leaving) == header
            assert next(staying) == header
            assert next(leaving)["etype"] == "service_start"
            leaving.close()
            client.submit(job_payload("job-1"))
            client.clock("step", to_s=600.0)
            client.submit(job_payload("job-2"))
            client.clock("step", to_s=1200.0)
            recorded = client.status()["events_recorded"]
            received = [next(staying) for _ in range(recorded)]
    finally:
        thread.stop(drain=False)
        thread.join()
    staying.close()
    assert [e["seq"] for e in received] == list(range(1, recorded + 1))
    assert received == [e.to_dict() for e in tracer.events[:recorded]]
    assert {e["job_id"] for e in received} >= {"job-0", "job-1", "job-2"}
    # Both subscribers are gone, and so is the broadcast sink.
    assert tracer._sinks == [server.engine._on_event]


def test_http_endpoints_answer_when_enabled():
    import urllib.request

    server = ServeServer(make_engine(), port=0, http_port=0)
    thread = ServerThread(server)
    host, _ = thread.start()
    try:
        base = f"http://{host}:{server.http_port}"
        with urllib.request.urlopen(f"{base}/healthz", timeout=10) as rsp:
            assert json.loads(rsp.read())["ok"] is True
        with urllib.request.urlopen(f"{base}/status", timeout=10) as rsp:
            assert json.loads(rsp.read())["paused"] is True
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as rsp:
            assert rsp.headers["Content-Type"].startswith("text/plain")
            body = rsp.read().decode("utf-8")
            assert "# TYPE repro_serve_decisions_total counter" in body
            assert "repro_serve_queue_depth" in body
    finally:
        thread.stop(drain=False)
        thread.join()
