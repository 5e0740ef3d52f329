"""The ``serve_online`` workload: ``python -m repro serve`` under an
open-loop generator.

The server runs in a child process with its virtual clock paused. For
each job the generator sends a ``submit`` and a quarter period later a
``clock step`` to the job's submit time (the two *writes*), and three
quarters of a period after the submit a ``status`` and a ``metrics``
request together (one *read*). With the clock paused, the simulation advances only
through the steps, so the service's decisions are a function of the
job stream alone and equal a batch run of the same jobs.

One run spawns the server five times, each fed its own job stream at a
fixed rate for a fifth of ``--seconds``.
``run_wall_s`` is the CPU time the servers spent serving the streams
(their wall time is fixed by the schedule, so it would not show a faster
service). Unlike the batch workloads' host times, these are not
normalised by the host's speed (:mod:`host`): calibrated in the
generator's process or in the mostly idle server's, the factor did not
follow the server's CPU time, and normalising made ``run_wall_s``
spread wider across seeds, not narrower. The clock is then
released and the service finishes the simulation, within
:data:`DRAIN_TIMEOUT_S`. Last, the drained service's own outcome (end
time, every job's JCT and finish time, rounds and loop events, printed
by :mod:`serve_launcher`) must equal a batch run over the same jobs,
computed outside any timed region. The digest and the modelled metrics
are the service's.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from typing import List, Optional, Sequence

import host
import loadgen
import stats
from inputs import BatchSpec, Cell, build_cluster, cell_seed, make_trace
from serve_launcher import OUTCOME_PREFIX

#: The served fleet: 64 V100s with 368 GB cache per GPU (§7.2) and four
#: times the §7.2 egress (32 Gbps per 100 GPUs). At the §7.2 egress the
#: jobs are IO-bound and the queue grows past 190 jobs over 500
#: submissions even at a nominal load of 0.8; every op's cost grows with
#: the queue, so latency would describe a service that slows down as the
#: run goes on. With more egress, and 100 jobs per server, the queue
#: stays below ~30 jobs at load 1.5. (At load 0.8 nothing queued and
#: every seed gave the same JCT percentiles.)
NUM_GPUS = 64
EGRESS_GBPS_PER_100_GPUS = 32.0
RESCHEDULE_S = 1800.0
LOAD = 1.5
DURATION_MEDIAN_S = 3600.0

#: Jobs per second of the fixed-rate stream; with two writes and two
#: reads per job the op rate is four times this, about a sixth of the
#: requests the service answers per CPU second.
JOB_RATE = 25.0
#: Servers per run, each fed its own stream (a cell, as in the batch
#: workloads): pooling five independent streams steadies the latency
#: medians, and each spawn is one set-up sample.
SESSIONS = 5
#: Longest the released service may take to finish every job.
DRAIN_TIMEOUT_S = 30.0
#: Admission-queue depth: far above the stream's backlog, so nothing is
#: refused for being queued (the paused clock keeps jobs queued).
QUEUE_LIMIT = 100000

#: Both writes are samples of the write class. The reads go as a pair
#: and the pair's latency is its second reply's, timed from the pair's
#: due time: ``status`` (~0.6 ms) and ``metrics`` (~2 ms) timed apart
#: would put the class median in the gap between two clusters. (Sent
#: as a pair, the writes came back ~3 ms late as one, for a reason
#: outside the service's work, so they go apart.)
WRITES = ("submit", "clock")
READ_SAMPLE = "metrics"


def server_args() -> List[str]:
    """``repro serve`` arguments shared by the plain and traced servers."""
    return [
        "--paused", "--port", "0",
        "--gpus", str(NUM_GPUS), "--gpus-per-server", "4",
        "--cache-per-gpu-gb", "368", "--egress-gbps",
        repr(EGRESS_GBPS_PER_100_GPUS * NUM_GPUS / 100.0),
        "--queue-limit", str(QUEUE_LIMIT),
        "--reschedule-s", repr(RESCHEDULE_S),
    ]


def job_schedule(jobs: Sequence, job_rate: float) -> List[loadgen.Request]:
    """Open-loop schedule at ``job_rate`` jobs per second. Per job the
    two writes a quarter period apart (``submit``, then ``clock step``),
    and three quarters of a period after the first the read pair
    (``status`` and ``metrics``, due together), leaving the simulator
    half a period to catch up with the step."""
    from repro.workloads.trace_io import job_to_dict

    period = 1.0 / job_rate
    out = []
    for k, job in enumerate(jobs):
        due = k * period
        out.append(loadgen.Request(due, "submit", loadgen.encode(
            {"op": "submit", "job": job_to_dict(job)})))
        out.append(loadgen.Request(due + period / 4, "clock", loadgen.encode(
            {"op": "clock", "action": "step", "to_s": job.submit_time_s})))
        out.append(loadgen.Request(due + 3 * period / 4, "status",
                                   loadgen.encode({"op": "status"})))
        out.append(loadgen.Request(due + 3 * period / 4, "metrics",
                                   loadgen.encode({"op": "metrics"})))
    return out


class Server:
    """One ``repro serve`` child process and a blocking connection."""

    def __init__(self, root: str, env: dict, traced_out: Optional[str]):
        cmd = [sys.executable, "-u",
               os.path.join(root, "perfbench", "serve_launcher.py")]
        if traced_out is not None:
            cmd += ["--layers-out", traced_out]
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd + server_args(), cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        port = None
        for line in self.proc.stdout:
            if line.startswith("serve: listening on"):
                port = int(line.rsplit(":", 1)[1])
                break
        if port is None:
            self.proc.wait(timeout=30)
            raise RuntimeError(
                f"server failed to start: {self.proc.stderr.read()}"
            )
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        hello = json.loads(self.reader.readline())
        if hello.get("kind") != "repro-serve":
            raise RuntimeError(f"unexpected hello {hello}")
        self.ready = time.monotonic()

    def call(self, request: dict) -> dict:
        self.sock.sendall(loadgen.encode(request))
        return json.loads(self.reader.readline())

    def close(self) -> dict:
        """Shut down (drain), wait for exit; returns the service's own
        outcome record, the launcher's last stdout line."""
        try:
            self.call({"op": "shutdown", "drain": True})
        finally:
            self.reader.close()
            self.sock.close()
        out, err = self.proc.communicate(timeout=120)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited {self.proc.returncode}: {err}")
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        if not last.startswith(OUTCOME_PREFIX):
            raise RuntimeError(f"server printed no outcome: {out[-500:]}")
        return json.loads(last[len(OUTCOME_PREFIX):])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


#: The served configuration as a batch spec (cluster and replica).
SPEC = BatchSpec(
    simulator="fluid",
    policy="fifo",
    cells=1,
    num_jobs=0,
    num_gpus=NUM_GPUS,
    load=LOAD,
    duration_median_s=DURATION_MEDIAN_S,
    egress_gbps_per_100_gpus=EGRESS_GBPS_PER_100_GPUS,
    sim_kwargs=(("reschedule_interval_s", RESCHEDULE_S),),
)


def drain(server: Server, n_jobs: int,
          timeout_s: float = DRAIN_TIMEOUT_S) -> int:
    """Release the clock and wait until the service has finished all
    ``n_jobs``; returns how many are still unfinished at ``timeout_s``
    (all of them when the service stops answering)."""
    deadline = time.monotonic() + timeout_s
    finished = 0
    try:
        server.call({"op": "clock", "action": "resume"})
        while time.monotonic() < deadline:
            finished = server.call({"op": "status"})["jobs_finished"]
            if finished >= n_jobs:
                break
            time.sleep(0.01)
    except (OSError, ValueError):
        finished = 0
    return n_jobs - finished


def compare(service: dict, batch_out: dict) -> List[str]:
    """Where the service's outcome differs from the batch run's."""
    problems = [
        f"{field}: service {service[field]} != batch {batch_out[field]}"
        for field in ("end_time_s", "sched_rounds", "decision_rounds",
                      "loop_events")
        if service[field] != batch_out[field]
    ]
    batch_jobs = {job[0]: job for job in batch_out["jobs"]}
    differ = [job[0] for job in service["jobs"]
              if batch_jobs.get(job[0]) != job]
    if differ or len(service["jobs"]) != len(batch_jobs):
        problems.append(
            f"{len(differ)} of {len(batch_jobs)} jobs differ from the batch "
            f"run (first: {differ[:3]})"
        )
    return problems


def session(
    root: str, env: dict, jobs: Sequence, layers_out: Optional[str] = None,
) -> dict:
    """Spawn one server, load it, drain it, check it; returns its report."""
    import batch as batch_mod
    from repro.workloads.trace_io import job_from_dict, job_to_dict

    server = Server(root, env, layers_out)
    try:
        cpu_ready = host.cpu_s(server.proc.pid)
        outcomes, backlog_max = loadgen.run(
            server.sock, job_schedule(jobs, JOB_RATE)
        )
        busy_s = host.cpu_s(server.proc.pid) - cpu_ready
        unfinished = drain(server, len(jobs))
        service = None
        if unfinished:
            server.kill()
        else:
            rss_mb = host.vm_hwm_mb(server.proc.pid)
            service = server.close()
    except BaseException:
        server.kill()
        raise

    problems = []
    if unfinished:
        problems.append(f"{unfinished} of {len(jobs)} jobs unfinished "
                        f"{DRAIN_TIMEOUT_S:g} s after the clock was released")
    else:
        # The batch run sees the jobs exactly as the server parsed them.
        datasets: dict = {}
        cell = Cell(
            cluster=build_cluster(SPEC),
            jobs=[job_from_dict(job_to_dict(job), datasets) for job in jobs],
            faults=None,
        )
        replica = batch_mod.run_cell(batch_mod.build_sim(SPEC, cell), 0)
        problems.extend(batch_mod.check(replica.result, cell, SPEC))
        problems.extend(compare(service, replica.outcome))
        unfinished = batch_mod.unfinished([service])

    writes = [o.latency_s for o in outcomes
              if o.kind in WRITES and o.status == loadgen.OK]
    reads = [o.latency_s for o in outcomes
             if o.kind == READ_SAMPLE and o.status == loadgen.OK]
    return {
        "setup_s": server.ready - server.spawned,
        "writes_s": writes,
        "reads_s": reads,
        "lags_s": [o.lag_s for o in outcomes],
        "run_wall_s": busy_s,
        "peak_rss_mb": None if service is None else rss_mb,
        "service": service,
        "problems": problems,
        # Every request, and every job the service had to finish.
        "attempted": len(outcomes) + len(jobs),
        "failed": sum(1 for o in outcomes if o.status != loadgen.OK)
        + unfinished,
        "backlog_max": backlog_max,
    }


def combine(sessions: List[dict]) -> dict:
    """One report from several sessions: latencies pooled, CPU summed,
    set-up and RSS as medians, modelled outcomes pooled over the
    services' outcomes."""
    import batch as batch_mod

    problems = [p for r in sessions for p in r["problems"]]
    if problems:
        return {"problems": problems}
    services = [r["service"] for r in sessions]
    lags = sorted(lag for r in sessions for lag in r["lags_s"])
    return {
        "setup_s": stats.median([r["setup_s"] for r in sessions]),
        "write_ms": stats.percentiles_ms(
            [w for r in sessions for w in r["writes_s"]]),
        "read_ms": stats.percentiles_ms(
            [w for r in sessions for w in r["reads_s"]]),
        "run_wall_s": sum(r["run_wall_s"] for r in sessions),
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in sessions]),
        "modelled": batch_mod.modelled(services),
        "digest": batch_mod.digest(services),
        "problems": problems,
        "attempted": sum(r["attempted"] for r in sessions),
        "failed": sum(r["failed"] for r in sessions),
        "lag_p99_ms": stats.nearest_rank(lags, 0.99) * 1000.0,
        "backlog_max": max(r["backlog_max"] for r in sessions),
    }


def run_workload(
    root: str, env: dict, seed: int, seconds: float, traced: bool,
    tiny: bool = False,
) -> dict:
    """One serve_online run (see the module docstring)."""
    n_jobs = max(4, int(round(seconds * JOB_RATE / SESSIONS)))
    streams = [
        make_trace(cell_seed(seed, i), n_jobs, NUM_GPUS, LOAD,
                   DURATION_MEDIAN_S)
        for i in range(SESSIONS)
    ]
    if not traced:
        sessions = []
        for jobs in streams:
            sessions.append(session(root, env, jobs))
            if sessions[-1]["problems"]:
                break  # the run has failed; do not wait on more servers
        return combine(sessions)
    # Traced: one stream once plain and once through the launcher.
    plain = combine([session(root, env, streams[0])])
    layers_out = os.path.join(root, ".perfbench", "layers-serve_online.json")
    os.makedirs(os.path.dirname(layers_out), exist_ok=True)
    report = combine([session(root, env, streams[0], layers_out)])
    if report["problems"] or plain["problems"]:
        return {"problems": plain["problems"] + report["problems"]}
    with open(layers_out) as handle:
        report["layers"] = json.load(handle)
    report["traced_wall_s"] = report["run_wall_s"]
    report["untraced_wall_s"] = plain["run_wall_s"]
    if plain["digest"] != report["digest"]:
        report["problems"].append("traced and plain runs diverged")
    return report
