#!/usr/bin/env python
"""The online scheduler service, end to end, in one process.

Boots a real ``repro.serve`` server (socket and all) on an ephemeral
port, then drives it with :class:`repro.serve.ServeClient` the way an
external submitter would:

1. stage jobs while the virtual clock is deep-frozen;
2. release virtual time in a controlled step and watch admissions;
3. stream the live event log over a ``subscribe`` connection;
4. drain gracefully and print the service's own final metrics.

Run: ``python examples/online_service.py``
"""

import threading

from repro import units
from repro.cluster.hardware import Cluster
from repro.obs import StreamingTracer
from repro.serve import (
    OnlineEngine,
    ServeClient,
    ServeServer,
    ServerThread,
    VirtualClock,
)


def job(job_id: str, size_gb: float, submit_time_s: float) -> dict:
    """A v1 trace-format job dict, as a client would POST it."""
    return {
        "v": 1,
        "job_id": job_id,
        "model": "resnet50",
        "dataset": {
            "name": f"ds-{job_id}",
            "size_mb": units.gb(size_gb),
            "num_items": 10_000,
        },
        "num_gpus": 1,
        "ideal_throughput_mbps": 200.0,
        "total_work_mb": 2 * units.gb(size_gb),  # two epochs
        "submit_time_s": submit_time_s,
        "regular": True,
    }


def main() -> None:
    cluster = Cluster.build(
        num_servers=2,
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=units.gbps(1.6),
    )
    engine = OnlineEngine(
        cluster,
        "fifo",
        "silod",
        queue_limit=16,
        clock=VirtualClock(start_paused=True),
        tracer=StreamingTracer(),
    )
    thread = ServerThread(ServeServer(engine, port=0))
    host, port = thread.start()
    print(f"service up on {host}:{port}\n")

    # A second connection tails the event stream while we work.
    tail_lines = []

    def tail() -> None:
        with ServeClient(host=host, port=port) as watcher:
            for event in watcher.tail():
                if event.get("etype"):
                    tail_lines.append(
                        f"  [tail] t={event['ts_s']:>8.1f}s "
                        f"{event['etype']:<18} {event.get('job_id') or ''}"
                    )

    watcher_thread = threading.Thread(target=tail, daemon=True)
    watcher_thread.start()

    with ServeClient(host=host, port=port) as client:
        print("1. staging submissions under the frozen clock")
        for i in range(4):
            response = client.submit(job(f"job-{i}", 10.0, 600.0 * i))
            print(
                f"   submitted {response['job_id']} "
                f"(queue depth {response['queue_depth']})"
            )
        counts = client.status()["job_counts"]
        print(f"   staged: {counts['accepted']} accepted, none admitted\n")

        print("2. stepping virtual time to t=1000s")
        client.clock("step", to_s=1000.0)
        states = client.status()["jobs"]
        for job_id in sorted(states):
            print(f"   {job_id}: {states[job_id]}")
        print()

        print("3. draining (runs the backlog dry)")
        client.shutdown(drain=True)

    thread.join()
    watcher_thread.join(timeout=10)

    metrics = engine.metrics()["serve"]
    latency = metrics["admit_to_place_ms"]
    print(
        f"   drained: {engine.jobs_finished} finished, "
        f"virtual time {engine.sim.clock_s:,.0f}s, "
        f"{metrics['decisions_total']} scheduling rounds"
    )
    print(
        f"   admission→placement latency: "
        f"p50 {latency['p50']:.2f} ms, p99 {latency['p99']:.2f} ms\n"
    )

    print("4. the live stream the watcher saw (first 12 lines):")
    for line in tail_lines[:12]:
        print(line)
    print(f"   ... {len(tail_lines)} events total")


if __name__ == "__main__":
    main()
