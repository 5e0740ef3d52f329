"""Shared fixtures for the online-service suite.

Everything runs against tiny deterministic clusters so the full
socket round-trips stay well under a second. Engines default to a
deep-paused clock (``start_paused=True``) so tests can stage
submissions without the pump racing them.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro import units
from repro.cluster.hardware import Cluster
from repro.obs import StreamingTracer
from repro.serve import (
    OnlineEngine,
    ServeServer,
    ServerThread,
    VirtualClock,
)


def small_cluster(servers: int = 2, gpus_per_server: int = 4) -> Cluster:
    return Cluster.build(
        num_servers=servers,
        gpus_per_server=gpus_per_server,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=units.gbps(1.6),
    )


def job_payload(
    job_id: str,
    dataset: str = "ds-shared",
    size_mb: float = 512.0,
    submit_time_s: float = 0.0,
    num_gpus: int = 1,
) -> dict:
    """A minimal v1 trace-format job dict (one epoch over the dataset)."""
    return {
        "v": 1,
        "job_id": job_id,
        "model": "resnet50",
        "dataset": {"name": dataset, "size_mb": size_mb, "num_items": 1000},
        "num_gpus": num_gpus,
        "ideal_throughput_mbps": 100.0,
        "total_work_mb": size_mb,
        "submit_time_s": submit_time_s,
        "regular": True,
    }


def make_engine(
    policy: str = "fifo",
    cache: str = "silod",
    queue_limit: int = 64,
    simulator: str = "fluid",
    paused: bool = True,
    cluster: Cluster | None = None,
    **sim_kwargs,
) -> OnlineEngine:
    return OnlineEngine(
        cluster if cluster is not None else small_cluster(),
        policy,
        cache,
        queue_limit,
        clock=VirtualClock(start_paused=paused),
        simulator=simulator,
        tracer=StreamingTracer(),
        **sim_kwargs,
    )


@pytest.fixture
def live_server():
    """A paused-engine server on an ephemeral port, torn down on exit."""
    server = ServeServer(make_engine(queue_limit=8), port=0)
    thread = ServerThread(server)
    host, port = thread.start()
    try:
        yield host, port, server
    finally:
        thread.stop(drain=False)
        thread.join()


@pytest.fixture
def scripted_server():
    """A real TCP server that plays back a fixed byte script and closes.

    The returned function takes the raw bytes to play to *every*
    accepted connection (hello line included — the tail CLI opens one
    control connection plus one subscriber connection) and returns
    ``(host, port)``. Used to exercise client-side behaviour on abrupt
    stream endings that a healthy ``ServeServer`` never produces
    (truncated lines, mid-stream resets).
    """
    sockets = []
    threads = []

    def start(script: bytes):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10.0)
        sockets.append(listener)

        def serve_one(conn):
            with conn:
                conn.sendall(script)
                # Read whatever the client sends (subscribe request)
                # so the close is orderly from our side.
                conn.settimeout(5.0)
                try:
                    conn.recv(65536)
                except OSError:
                    pass

        def accept_loop():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return  # listener closed by teardown
                worker = threading.Thread(
                    target=serve_one, args=(conn,), daemon=True
                )
                worker.start()
                threads.append(worker)

        acceptor = threading.Thread(target=accept_loop, daemon=True)
        acceptor.start()
        return listener.getsockname()

    yield start
    for listener in sockets:
        listener.close()
    for thread in threads:
        thread.join(timeout=5.0)
