"""The emission contract of real runs: field order and derived metrics.

Every emit site passes its event's fields as explicit keywords in
``EVENT_FIELDS`` order, and that order is the key order of the JSONL
log and of the serve tail stream. The anchor digests
(``event_digest``) hash with sorted keys, so they do not pin it; the
runs below do, across both simulators (faults, a cancel, deadlines)
and the online engine.

The registry is a function of the event stream
(``repro.obs.tracer.DERIVED_METRICS``): a fresh tracer fed a run's
events reproduces its snapshot, which is also pinned by digest on two
anchor cells.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import units
from repro.cluster.hardware import Cluster
from repro.faults import FaultEvent
from repro.obs import EVENT_FIELDS, EVENT_TYPES, Tracer
from repro.serve import ProtocolError
from repro.serve.protocol import REJECT_QUEUE_FULL
from repro.sim.fluid import FluidSimulator
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system
from tests.serve.conftest import job_payload, make_engine
from tests.sim import test_fluid_anchors as fluid_anchors
from tests.sim import test_minibatch_anchors as minibatch_anchors

pytestmark = pytest.mark.obs

GB = 1024.0

#: Node faults, a bandwidth flap and a preempt/restart pair of job
#: ``p01`` (fluid) or ``a`` (minibatch).
_NODE_FAULTS = [
    FaultEvent(300.0, "cache_loss", magnitude=8.0 * GB),
    FaultEvent(700.0, "bandwidth", magnitude=0.4),
    FaultEvent(1100.0, "cache_recover", magnitude=8.0 * GB),
    FaultEvent(1500.0, "bandwidth", magnitude=1.0),
]


def _with_deadlines(jobs):
    """Give every other job a JCT budget: tight ones violate, loose
    ones only warn."""
    return [
        dataclasses.replace(job, deadline_s=(400.0, 4000.0)[i % 4 // 2])
        if i % 2 == 0
        else job
        for i, job in enumerate(jobs)
    ]


def _drive(sim, cancel_at_s, cancel_id):
    """Run ``sim`` online, cancelling ``cancel_id`` at ``cancel_at_s``."""
    sim.begin()
    while sim.step(limit_s=cancel_at_s):
        pass
    assert sim.cancel_job(cancel_id)
    while sim.step():
        pass
    sim.finish()


def _fluid_run():
    tracer = Tracer()
    scheduler, cache_system = make_system("fifo", "silod")
    sim = FluidSimulator(
        Cluster.build(4, 4, units.gb(15.0), 150.0),
        scheduler,
        cache_system,
        _with_deadlines(fluid_anchors.private_jobs()),
        reschedule_interval_s=600.0,
        faults=_NODE_FAULTS
        + [
            FaultEvent(500.0, "server_crash", magnitude=1.0),
            FaultEvent(900.0, "job_preempt", target="p01"),
            FaultEvent(1300.0, "job_restart", target="p01"),
            FaultEvent(1900.0, "server_recover", magnitude=1.0),
        ],
        tracer=tracer,
    )
    _drive(sim, 1700.0, "p05")
    return tracer


def _minibatch_run():
    tracer = Tracer()
    scheduler, cache_system = make_system("fifo", "silod")
    sim = MinibatchEmulator(
        Cluster.build(2, 4, 24.0 * GB, 150.0),
        scheduler,
        cache_system,
        _with_deadlines(minibatch_anchors.anchor_jobs()),
        item_size_mb=128.0,
        decision_interval_s=60.0,
        faults=_NODE_FAULTS
        + [
            FaultEvent(500.0, "job_preempt", target="a"),
            FaultEvent(800.0, "job_restart", target="a"),
            FaultEvent(1000.0, "server_crash", magnitude=1.0),
            FaultEvent(1200.0, "server_recover", magnitude=1.0),
        ],
        tracer=tracer,
    )
    _drive(sim, 950.0, "e")
    return tracer


def _online_run():
    engine = make_engine(queue_limit=2, paused=False)
    engine.start()
    engine.submit(job_payload("job-0"))
    engine.submit(job_payload("job-1", submit_time_s=60.0))
    with pytest.raises(ProtocolError) as err:
        engine.submit(job_payload("job-2"))
    assert err.value.reason == REJECT_QUEUE_FULL
    engine.clock_op("pause")
    engine.cancel("job-1")
    engine.clock_op("resume")
    engine.drain()
    return engine.tracer


RUNS = {
    "fluid": _fluid_run,
    "minibatch": _minibatch_run,
    "online": _online_run,
}


@pytest.fixture(scope="module")
def traced_runs():
    return {name: run().events for name, run in RUNS.items()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fields_come_in_schema_order(traced_runs, name):
    events = traced_runs[name]
    assert events
    for event in events:
        assert list(event.fields) == list(EVENT_FIELDS[event.etype]), event


def test_runs_cover_every_event_type(traced_runs):
    seen = {e.etype for events in traced_runs.values() for e in events}
    assert seen == set(EVENT_TYPES)


def metrics_digest(tracer):
    """16 hex digits of SHA-256 over the registry snapshot, minus the
    wall-clock ``decision_latency_ms`` window."""
    snapshot = tracer.metrics.snapshot()
    snapshot["cluster"].get("windows", {}).pop("decision_latency_ms", None)
    blob = json.dumps(snapshot, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _fluid_faults_cell():
    tracer = Tracer()
    sim = fluid_anchors.build_cell("faults", tracer=tracer)
    fluid_anchors.run_sim(sim, "faults")
    return tracer


def _minibatch_preempt_cell():
    return minibatch_anchors.run_cell("preempt", traced=True)[1]


#: Traced runs whose whole registry is checked against their events.
REPLAYED = {
    "fluid-faults": _fluid_faults_cell,
    "minibatch-preempt": _minibatch_preempt_cell,
    "online": _online_run,
}


@pytest.fixture(scope="module")
def replayed_tracers():
    return {name: run() for name, run in REPLAYED.items()}


@pytest.mark.parametrize("name", sorted(REPLAYED))
def test_replayed_events_reproduce_the_registry(replayed_tracers, name):
    tracer = replayed_tracers[name]
    assert tracer.dropped == 0
    replay = Tracer()
    for e in tracer.events:
        replay.emit(e.ts_s, e.etype, e.job_id, **e.fields)
    assert json.dumps(replay.metrics.snapshot()) == json.dumps(
        tracer.metrics.snapshot()
    )


def test_fluid_faults_cell_metrics_digest(replayed_tracers):
    tracer = replayed_tracers["fluid-faults"]
    assert metrics_digest(tracer) == "95910ed601b77020"


def test_minibatch_preempt_cell_metrics_digest(replayed_tracers):
    tracer = replayed_tracers["minibatch-preempt"]
    assert metrics_digest(tracer) == "630295afafa44a40"
