"""Batch workloads: build each cell's simulator and run it, timed.

A cell is driven through the simulators' stepped protocol as the online
engine drives it: before every ``step()`` the loop issues the read-only
``next_event_time()`` peek (the query the serve pump makes), then the
state-changing ``step()``. The peek is pure, so every simulated
statistic equals ``run()``'s.

* A *read* is one peek. The benchmark issues the workload's
  ``BatchSpec.peeks`` back to back and takes their mean, so a
  microsecond-scale call is not lost in timer and interrupt noise.
* A *write* is a step that ran a scheduling round, reported as host
  time per simulator event the step processed: the step's own latency
  on the fluid simulator (one event per step), the per-item cost on the
  minibatch emulator (one step is a whole decision interval of item
  events).

Both are weighted by the events the step processed, so the minibatch
emulator's idle tail intervals do not outnumber its busy ones.
``run_wall_s`` is host time in ``begin()``, every ``step()`` and
``finish()``; the benchmark's own peeks are excluded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from typing import Dict, List

from repro import units
from repro.sim.fluid import FluidSimulator
from repro.sim.metrics import RunResult
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system

from inputs import BatchSpec, Cell

#: Relative slack of the physical-invariant checks (float round-off).
_REL_EPS = 1e-6


@dataclasses.dataclass
class CellRun:
    """What one timed pass over one cell produced."""

    result: RunResult
    outcome: dict
    wall_s: float
    write_s: List[float]
    write_events: List[int]
    read_s: List[float]
    read_events: List[int]


def outcome(result: RunResult, sim) -> dict:
    """Every simulated statistic of one finished run, as plain data:
    end time, per job ``[id, finished, JCT, finish time]``, scheduling
    and decision rounds and loop events. The serve workload gets the
    same record from the service itself."""
    return {
        "end_time_s": result.end_time_s,
        "jobs": [[r.job_id, r.finished, r.jct_s, r.finish_time_s]
                 for r in result.records],
        "sched_rounds": sim.sched_rounds,
        "decision_rounds": sim.decision_rounds,
        "loop_events": sim.loop_events,
    }


def build_sim(spec: BatchSpec, cell: Cell):
    """A fresh simulator for ``cell`` (not yet begun)."""
    scheduler, cache_system = make_system(spec.policy, "silod")
    kwargs = dict(spec.sim_kwargs)
    if cell.faults is not None:
        kwargs["faults"] = cell.faults
    cls = FluidSimulator if spec.simulator == "fluid" else MinibatchEmulator
    return cls(cell.cluster, scheduler, cache_system, cell.jobs, **kwargs)


def run_cell(sim, peeks: int) -> CellRun:
    """Drive ``sim`` to completion; time the run, its peeks and steps.

    ``peeks=0`` issues no peeks, which is exactly ``run()`` (the traced
    pass uses it, so layer figures hold no benchmark-made calls).
    """
    clock = time.perf_counter
    reads: List[float] = []
    read_weights: List[int] = []
    writes: List[float] = []
    weights: List[int] = []
    peek = sim.next_event_time
    step = sim.step
    t0 = clock()
    sim.begin()
    wall_s = clock() - t0
    while True:
        rounds, events = sim.sched_rounds, sim.loop_events
        t0 = clock()
        for _ in range(peeks):
            peek()
        t1 = clock()
        more = step()
        t2 = clock()
        wall_s += t2 - t1
        processed = max(1, sim.loop_events - events)
        if peeks:
            reads.append((t1 - t0) / peeks)
            read_weights.append(processed)
        if sim.sched_rounds != rounds:
            writes.append((t2 - t1) / processed)
            weights.append(processed)
        if not more:
            break
    t0 = clock()
    result = sim.finish()
    wall_s += clock() - t0
    return CellRun(
        result=result,
        outcome=outcome(result, sim),
        wall_s=wall_s,
        write_s=writes,
        write_events=weights,
        read_s=reads,
        read_events=read_weights,
    )


def digest(outcomes: List[dict]) -> str:
    """Hash of every simulated statistic a speed-only change must keep:
    end time, per-job JCTs, scheduling/decision rounds and loop events
    (of :func:`outcome` records)."""
    h = hashlib.sha256()
    for out in outcomes:
        h.update(repr(out["end_time_s"]).encode())
        for job_id, _finished, jct_s, _finish_s in out["jobs"]:
            h.update(f"{job_id}:{jct_s!r};".encode())
        h.update(
            f"{out['sched_rounds']}/{out['decision_rounds']}/"
            f"{out['loop_events']}|".encode()
        )
    return h.hexdigest()[:16]


def unfinished(outcomes: List[dict]) -> int:
    """Jobs that did not finish, over :func:`outcome` records."""
    return sum(1 for out in outcomes for job in out["jobs"] if not job[1])


def check(result: RunResult, cell: Cell, spec: BatchSpec) -> List[str]:
    """Correctness problems of one run (empty when it is correct).

    Every job finished, and at every timeline sample: effective <=
    resident <= cache pool, remote IO used <= egress, and achieved
    throughput <= the Eq. 4 compute bound. The minibatch emulator moves
    whole items, and its achieved throughput is an interval average, so
    there the bound allows one item per running job per sample interval.
    """
    problems = []
    unfinished = [r.job_id for r in result.records if not r.finished]
    if unfinished:
        problems.append(f"{len(unfinished)} jobs unfinished")
    if len(result.records) != len(cell.jobs):
        problems.append(
            f"{len(result.records)} records for {len(cell.jobs)} jobs"
        )
    pool = cell.cluster.total_cache_mb
    egress = cell.cluster.remote_io_mbps

    def over(value: float, limit: float) -> bool:
        return not math.isfinite(value) or value > limit * (1 + _REL_EPS) + 1e-6

    sim_kwargs = dict(spec.sim_kwargs)
    item_rate = (
        sim_kwargs["item_size_mb"] / sim_kwargs["sample_interval_s"]
        if spec.simulator == "minibatch"
        else 0.0
    )
    for s in result.timeline:
        if over(s.effective_cache_mb, s.resident_cache_mb):
            problems.append(f"t={s.time_s}: effective > resident")
        if over(s.resident_cache_mb, pool):
            problems.append(f"t={s.time_s}: resident > cache pool")
        if over(s.remote_io_used_mbps, egress):
            problems.append(f"t={s.time_s}: remote IO > egress")
        bound = s.ideal_throughput_mbps + s.running_jobs * item_rate
        if over(s.total_throughput_mbps, bound):
            problems.append(f"t={s.time_s}: throughput > Eq. 4 bound")
    return problems


def modelled(outcomes: List[dict]) -> Dict[str, float]:
    """Modelled outcomes pooled over the cells' finished jobs."""
    finished = [[job for job in out["jobs"] if job[1]] for out in outcomes]
    jcts = sorted(job[2] for jobs in finished for job in jobs)
    if not jcts:
        return {"avg_jct_min": math.nan, "jct_p95_min": math.nan,
                "makespan_h": math.nan}
    p95 = jcts[min(len(jcts) - 1, math.ceil(0.95 * len(jcts)) - 1)]
    makespans = [max(job[3] for job in jobs) for jobs in finished if jobs]
    return {
        "avg_jct_min": units.seconds_to_minutes(sum(jcts) / len(jcts)),
        "jct_p95_min": units.seconds_to_minutes(p95),
        "makespan_h": sum(makespans) / len(makespans) / units.hours(1.0),
    }
