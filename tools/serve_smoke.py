#!/usr/bin/env python
"""CI smoke test for ``python -m repro serve``.

Boots the service as a real subprocess (ephemeral port), drives three
jobs through it over the socket with :class:`repro.serve.ServeClient`,
checks that ``metrics`` reads reflect the submissions (the cluster
``events.job_submit`` counter rises and the new job's scope appears),
waits for all three to finish and checks that the registry's event
counters agree with the event log (``events_total`` equals the
``events_recorded`` status field, and the ``events.<type>`` counters
sum to it) and that the snapshot is the current layout
(``METRICS_SCHEMA_VERSION``, no ``gauges`` bucket, only event-derived
counters), drains the service, and checks the process
exits cleanly — the whole cycle bounded by a hard timeout so a hung
service fails CI instead of wedging it. Before the shutdown it also
reads the live server's ``/proc/<pid>/maps``: a mapped file under a
``numpy/`` directory means something the service ran imported numpy,
which ``repro serve`` never needs (where ``/proc`` is unreadable the
check prints a skip note). Every reply the smoke reads is parsed
strictly: a ``NaN`` or ``Infinity`` token, which JSON (RFC 8259) does
not allow, fails it. Before the drain it sends one raw ``clock`` line
with ``"speedup": NaN``, which must be refused with ``invalid_request``,
and then requires a ``ping`` that still answers. The service runs with
``--events PATH``; before the drain the smoke pauses the clock and
subscribes once on a second connection: the replay must hold exactly
``status``'s ``events_recorded`` lines, each parsed strictly, and after
exit the file's event lines must begin with those lines, byte for
byte. It also launches
``repro serve`` with a bad ``--queue-limit`` and a bad ``--policy``:
each must exit 2 with a usage error, not a traceback.

Usage: PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60.0


def _job(job_id: str, submit_s: float) -> dict:
    return {
        "v": 1,
        "job_id": job_id,
        "model": "resnet50",
        "dataset": {"name": "imagenet-tiny", "size_mb": 512.0,
                    "num_items": 1000},
        "num_gpus": 2,
        "ideal_throughput_mbps": 200.0,
        "total_work_mb": 2048.0,
        "submit_time_s": submit_s,
        "regular": True,
    }


def _submits(snapshot: dict) -> float:
    return snapshot["cluster"]["counters"].get("events.job_submit", 0.0)


def _await_fresh_metrics(client, before: dict, job_id: str,
                         deadline: float) -> None:
    """Poll ``metrics`` until a submit shows: a stale snapshot fails.

    The engine emits ``job_submit`` when its pump admits the job, so the
    first read after the ``submit`` reply may still predate it.
    """
    assert job_id not in before["jobs"], before
    while True:
        after = client.metrics()["metrics"]
        if _submits(after) > _submits(before) and job_id in after["jobs"]:
            return
        if time.monotonic() > deadline:  # lint: disable=DET003
            raise AssertionError(
                f"metrics never showed the submit of {job_id}: {after}"
            )
        time.sleep(0.05)


def _check_event_counts(client, deadline: float) -> None:
    """Once all three jobs have finished, the registry's event counters
    must agree with the event log: the cluster ``events_total`` equals
    the ``events_recorded`` status field, and the cluster
    ``events.<type>`` counters sum to ``events_total``."""
    while client.status()["jobs_finished"] < 3:
        if time.monotonic() > deadline:  # lint: disable=DET003
            raise AssertionError("the three jobs never finished")
        time.sleep(0.05)
    counters = client.metrics()["metrics"]["cluster"]["counters"]
    status = client.status()
    total = counters["events_total"]
    assert total == status["events_recorded"], (counters, status)
    by_type = sum(value for name, value in counters.items()
                  if name.startswith("events."))
    assert by_type == total, counters


def _check_metrics_layout(client) -> None:
    """The live ``metrics`` snapshot is layout ``METRICS_SCHEMA_VERSION``
    and holds only what the event stream derives: no scope has a
    ``gauges`` bucket, and every counter, cluster or job scoped, is
    ``events_total``, an ``events.<type>`` counter or a
    ``DERIVED_METRICS`` counter."""
    from repro.obs.registry import METRICS_SCHEMA_VERSION
    from repro.obs.tracer import COUNTER, DERIVED_METRICS

    derived = {row.metric for rows in DERIVED_METRICS.values()
               for row in rows if row.kind == COUNTER}
    snapshot = client.metrics()["metrics"]
    assert snapshot["schema_version"] == METRICS_SCHEMA_VERSION, snapshot
    for scope in [snapshot["cluster"], *snapshot["jobs"].values()]:
        assert "gauges" not in scope, scope
        for name in scope["counters"]:
            assert (name == "events_total" or name.startswith("events.")
                    or name in derived), name


def _reject_constant(token: str) -> float:
    raise ValueError(f"reply carries {token}, which is not JSON")


def _strict_json(raw: bytes):
    """One line of JSON, refusing the ``NaN``/``Infinity`` tokens."""
    return json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)


def _strict_client_class():
    """:class:`repro.serve.ServeClient` whose replies must be strict
    JSON (no ``NaN``/``Infinity``)."""
    from repro.serve.client import ServeClient
    from repro.serve.protocol import MAX_LINE_BYTES

    class StrictClient(ServeClient):
        def _read_line(self) -> dict:
            line = self._file.readline(MAX_LINE_BYTES + 4096)
            if not line:
                raise ConnectionError("server closed the connection")
            return _strict_json(line)

    return StrictClient


def _refuses_nan_speedup(client) -> None:
    """A ``clock`` line with ``"speedup": NaN`` is refused and the
    connection keeps serving. ``json.dumps`` writes a float NaN as the
    bare ``NaN`` token, so this sends exactly that raw line."""
    from repro.serve.client import ServeError
    from repro.serve.protocol import REJECT_INVALID

    try:
        reply = client.request("clock", action="resume",
                               speedup=float("nan"))
    except ServeError as err:
        assert err.reason == REJECT_INVALID, err
    else:
        raise AssertionError(f"a NaN speedup was accepted: {reply}")
    assert client.ping()["pong"] is True


def _replayed_lines(client, port: int) -> List[bytes]:
    """Pause the clock so the log holds still, subscribe on a second
    connection and return the replayed event lines. Every line must
    parse strictly, the replay must hold exactly ``status``'s
    ``events_recorded`` events, and their ``seq`` must run 1..N."""
    client.clock("pause")
    recorded = client.status()["events_recorded"]
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=TIMEOUT_S) as sock:
        stream = sock.makefile("rb")
        _strict_json(stream.readline())  # hello
        sock.sendall(b'{"op": "subscribe"}\n')
        ack = _strict_json(stream.readline())
        assert ack["ok"] and ack["events"] == recorded, (ack, recorded)
        header = _strict_json(stream.readline())
        assert header == {"v": 1, "kind": "repro-events"}, header
        lines = [stream.readline() for _ in range(recorded)]
        stream.close()
    seqs = [_strict_json(line)["seq"] for line in lines]
    assert seqs == list(range(1, recorded + 1)), seqs
    return lines


def _numpy_mappings(pid: int) -> Optional[List[str]]:
    """Mapped file paths under a ``numpy/`` directory in process
    ``pid``, or ``None`` when its memory map cannot be read."""
    try:
        with open(f"/proc/{pid}/maps") as handle:
            lines = handle.readlines()
    except OSError:
        return None
    # A maps line is "range perms offset dev inode [path]".
    return sorted({line.split(None, 5)[-1].strip() for line in lines
                   if f"{os.sep}numpy{os.sep}" in line})


def _usage_errors(env: dict, deadline: float) -> bool:
    """Bad ``serve`` flags must die in argparse: exit 2, no traceback."""
    for flags in (["--queue-limit", "0"], ["--policy", "bogus"]):
        # lint: disable=DET003
        left_s = max(1.0, deadline - time.monotonic())
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", *flags],
            cwd=REPO, env=env, capture_output=True, text=True,
            timeout=left_s,
        )
        if done.returncode != 2 or "Traceback" in done.stderr:
            print(done.stderr)
            print(f"FAIL: serve {' '.join(flags)} exited "
                  f"{done.returncode}, want a usage error (2)",
                  file=sys.stderr)
            return False
    return True


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO / 'src'}{os.pathsep}" + env.get(
        "PYTHONPATH", ""
    )
    # Real wall-clock on purpose: this smoke test times out live
    # subprocesses, not simulated events.
    # lint: disable=DET003
    deadline = time.monotonic() + TIMEOUT_S
    if not _usage_errors(env, deadline):
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        return _smoke(env, deadline, Path(tmp) / "events.jsonl")


def _smoke(env: dict, deadline: float, events_path: Path) -> int:
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve",
         "--port", "0", "--gpus", "8", "--queue-limit", "8",
         "--events", str(events_path)],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        # The service announces its ephemeral port on stdout.
        port = None
        assert proc.stdout is not None
        for line in proc.stdout:
            match = re.match(r"serve: listening on ([\d.]+):(\d+)", line)
            if match:
                port = int(match.group(2))
                break
            if time.monotonic() > deadline:  # lint: disable=DET003
                raise TimeoutError("service never announced its port")
        if port is None:
            raise RuntimeError("service exited before announcing its port")

        sys.path.insert(0, str(REPO / "src"))
        client_class = _strict_client_class()

        with client_class("127.0.0.1", port, timeout_s=TIMEOUT_S) as client:
            assert client.ping()["pong"] is True
            before = client.metrics()["metrics"]
            for i in range(3):
                response = client.submit(_job(f"smoke-{i}", float(i)))
                assert response["ok"], response
            _await_fresh_metrics(client, before, "smoke-0", deadline)
            status = client.status()
            assert status["jobs_submitted"] == 3, status
            _check_event_counts(client, deadline)
            _check_metrics_layout(client)
            mapped = _numpy_mappings(proc.pid)
            if mapped is None:
                print(f"serve smoke: /proc/{proc.pid}/maps unreadable, "
                      "numpy check skipped")
            elif mapped:
                print(f"FAIL: the server mapped numpy: {mapped[:3]}",
                      file=sys.stderr)
                return 1
            _refuses_nan_speedup(client)
            replayed = _replayed_lines(client, port)
            client.shutdown(drain=True)

        returncode = proc.wait(  # lint: disable=DET003
            timeout=max(1.0, deadline - time.monotonic())
        )
        tail = proc.stdout.read()
        if returncode != 0:
            print(tail)
            print(f"FAIL: serve exited with {returncode}", file=sys.stderr)
            return 1
        if "drained after 3 submissions, 3 finished" not in tail:
            print(tail)
            print("FAIL: drain summary missing or wrong", file=sys.stderr)
            return 1
        logged = events_path.read_bytes().splitlines(keepends=True)
        if logged[1:1 + len(replayed)] != replayed:
            print(f"FAIL: {events_path} does not begin with the "
                  f"{len(replayed)} replayed lines", file=sys.stderr)
            return 1
        print("serve smoke: bad flags refused; 3 jobs submitted and "
              "finished, event counters agree, metrics hold only "
              "event-derived counters, NaN speedup refused, "
              f"{len(replayed)} replayed events match the log file, "
              "drained, clean exit")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
