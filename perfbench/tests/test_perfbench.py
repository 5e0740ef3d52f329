"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import serve  # noqa: E402
import stats  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_reports_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [m["name"] for m in DECLARED["end_to_end"]]
    assert list(result["metrics"]) == names
    for decl in DECLARED["end_to_end"]:
        metric = result["metrics"][decl["name"]]
        assert metric["unit"] == decl["unit"]
        assert metric["value"] > 0, decl["name"]
    assert any(line.startswith(f"digest {workload} ") for line in lines)


@pytest.mark.parametrize("workload", ["fluid_het_churn", "serve_online"])
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    names = [m["name"] for m in DECLARED["per_layer"]]
    assert list(result["metrics"]) == names
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["sim.step.calls"] > 0
    assert values["core.schedule.calls"] == values["sim.sched_rounds"]
    # Numerator and denominator cover the same window.
    assert 0 < values["trace.blocking_share"] <= 1
    if workload == "serve_online":
        assert values["obs.emit.calls"] > 0
        assert values["serve.engine.pump.calls"] > 0


def test_digest_depends_only_on_the_seed():
    first = _run("--workload", "fluid_fifo", "--seed", "5", "--seconds",
                 "0.1", "--trace", "0", "--tiny")
    second = _run("--workload", "fluid_fifo", "--seed", "5", "--seconds",
                  "0.1", "--trace", "0", "--tiny")
    other = _run("--workload", "fluid_fifo", "--seed", "6", "--seconds",
                 "0.1", "--trace", "0", "--tiny")

    def digest(proc):
        assert proc.returncode == 0, proc.stderr
        return [l for l in proc.stdout.splitlines() if l.startswith("digest")]

    assert digest(first) == digest(second)
    assert digest(first) != digest(other)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fluid_fifo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_install_then_restore_puts_every_original_back():
    import importlib

    before = {}
    for module_name, path, _name, _kind in layers.TARGETS:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        before[(module_name, path)] = (owner, attr, owner.__dict__[attr]
                                       if isinstance(owner, type)
                                       else getattr(owner, attr))
    from repro.core.policies import base as policy_base
    from repro.sim import fluid

    by_name = (policy_base.greedy_cache_allocation,
               fluid.emit_decision_provenance)
    recorder = layers.Recorder()
    patches = layers.install(recorder)
    try:
        for owner, attr, original in before.values():
            current = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            assert current is not original, attr
        assert policy_base.greedy_cache_allocation is not by_name[0]
        assert fluid.emit_decision_provenance is not by_name[1]
    finally:
        layers.restore(patches)
    assert layers.installed(patches) == []
    for owner, attr, original in before.values():
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original, attr
    assert (policy_base.greedy_cache_allocation,
            fluid.emit_decision_provenance) == by_name


def test_wrapped_static_method_is_still_called_without_an_instance():
    from repro.faults.injector import FaultInjector

    recorder = layers.Recorder()
    patches = layers.install(recorder)
    try:
        victims = FaultInjector.select_victims({"b": 2.0, "a": 1.0}, 1.0)
    finally:
        layers.restore(patches)
    assert victims == ["a"]
    assert recorder.counters["faults.preemptions"] == 1


def test_self_time_subtracts_direct_children():
    recorder = layers.Recorder()

    def leaf():
        time.sleep(0.02)

    wrapped_leaf = recorder.wrap_span("leaf", leaf)

    def outer():
        wrapped_leaf()
        wrapped_leaf()
        time.sleep(0.01)

    recorder.wrap_span("outer", outer)()
    summary = recorder.summary()
    assert summary["leaf.calls"] == 2 and summary["outer.calls"] == 1
    assert summary["outer.s"] >= summary["leaf.s"] + 0.009
    assert summary["outer.self_s"] == pytest.approx(
        summary["outer.s"] - summary["leaf.s"])


class _StallingServer(threading.Thread):
    """Answers each line with ``{"ok": true}``; the first reply only
    after ``stall_s``."""

    def __init__(self, sock: socket.socket, stall_s: float, count: int):
        super().__init__(daemon=True)
        self.sock, self.stall_s, self.count = sock, stall_s, count

    def run(self) -> None:
        reader = self.sock.makefile("rb")
        for i in range(self.count):
            reader.readline()
            if i == 0:
                time.sleep(self.stall_s)
            self.sock.sendall(b'{"ok": true}\n')
        reader.close()


def test_open_loop_latency_is_timed_from_when_each_request_was_due():
    client, server_sock = socket.socketpair()
    schedule = [loadgen.Request(0.01 * i, "submit", b'{"op":"ping"}\n')
                for i in range(5)]
    server = _StallingServer(server_sock, stall_s=0.3, count=len(schedule))
    server.start()
    client.settimeout(7.0)
    try:
        outcomes, backlog_max = loadgen.run(client, schedule)
        assert client.gettimeout() == 7.0
    finally:
        server.join(timeout=10)
        client.close()
        server_sock.close()
    assert not server.is_alive()
    assert [o.status for o in outcomes] == [loadgen.OK] * 5
    # Every request waited behind the stalled first one, measured from
    # its own due time, while the generator kept sending on schedule.
    for i, outcome in enumerate(outcomes):
        assert outcome.latency_s >= 0.3 - 0.01 * i - 0.005
        assert outcome.lag_s < 0.05
    assert backlog_max == 5


def test_open_loop_counts_a_dropped_connection():
    client, server_sock = socket.socketpair()
    server_sock.close()
    schedule = [loadgen.Request(0.0, "status", b'{"op":"status"}\n')]
    outcomes, _ = loadgen.run(client, schedule)
    client.close()
    assert outcomes[0].status == loadgen.DROPPED


def test_drain_gives_up_on_a_service_that_never_finishes_a_job():
    class NeverFinishes:
        def call(self, request):
            return {"ok": True, "jobs_finished": 1}

    started = time.monotonic()
    assert serve.drain(NeverFinishes(), 3, timeout_s=0.2) == 2
    assert time.monotonic() - started < 5


def test_drain_counts_every_job_when_the_service_stops_replying():
    client, silent_peer = socket.socketpair()
    client.settimeout(0.2)
    server = serve.Server.__new__(serve.Server)
    server.sock, server.reader = client, client.makefile("rb")
    try:
        assert serve.drain(server, 4) == 4
    finally:
        server.reader.close()
        client.close()
        silent_peer.close()


def test_service_outcome_must_equal_the_batch_run_job_by_job():
    batch_out = {"end_time_s": 10.0, "sched_rounds": 3, "decision_rounds": 3,
                 "loop_events": 7,
                 "jobs": [["a", True, 4.0, 5.0], ["b", True, 6.0, 9.0]]}
    assert serve.compare(json.loads(json.dumps(batch_out)), batch_out) == []
    moved = json.loads(json.dumps(batch_out))
    moved["jobs"][1][2] = 6.5
    problems = serve.compare(moved, batch_out)
    assert len(problems) == 1 and "['b']" in problems[0]


def test_stratified_trace_keeps_rank_order_and_realised_load():
    jobs = inputs.make_trace(7, 50, 64, 1.5, 3600.0)
    again = inputs.make_trace(7, 50, 64, 1.5, 3600.0)
    assert [j.total_work_mb for j in jobs] == [j.total_work_mb for j in again]
    times = [j.submit_time_s for j in jobs]
    assert times == sorted(times)
    gpu_seconds = sum(
        j.num_gpus * j.total_work_mb / j.ideal_throughput_mbps for j in jobs
    )
    assert gpu_seconds / (64 * times[-1]) == pytest.approx(1.5)


def test_weighted_percentiles():
    assert stats.percentiles_ms([0.001, 0.002, 0.003])["p50"] == 2.0
    # One heavy sample dominates the weighted median.
    assert stats.percentiles_ms([0.001, 0.002], [1, 9])["p50"] == 2.0
