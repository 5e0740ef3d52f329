"""Fault schedules driving the fluid simulator, end to end (and the
emulator too where the two must agree)."""

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.faults import FaultEvent, FaultSchedule
from repro.obs import Tracer
from repro.sim.fluid import FluidSimulator
from repro.sim.runner import make_system, run_experiment

from tests.faults.conftest import small_cluster, two_job_trace

pytestmark = pytest.mark.faults

GB = 1024.0


def cluster(servers=4):
    return Cluster.build(servers, 1, 60.0 * GB, 50.0)


def jobs():
    return [
        Job(
            job_id=f"j{i}",
            model="m",
            dataset=Dataset(f"d-{i}", 40.0 * GB),
            num_gpus=1,
            ideal_throughput_mbps=80.0,
            total_work_mb=4 * 40.0 * GB,
        )
        for i in range(2)
    ]


def run(cache="silod", faults=None, tracer=None, servers=4):
    scheduler, cache_system = make_system("fifo", cache)
    kwargs = {"tracer": tracer} if tracer is not None else {}
    return FluidSimulator(
        cluster(servers), scheduler, cache_system, jobs(),
        faults=faults, **kwargs,
    ).run()


def jct_of(result, job_id):
    return next(
        r.jct_s for r in result.finished_records() if r.job_id == job_id
    )


def test_server_crash_degrades_jct_but_run_completes():
    clean = run()
    # Crash 1 of 4 servers after the caches have warmed (~2000 s): a
    # quarter of the resident bytes vanish and one job rolls back.
    crashed = run(
        faults=[FaultEvent(2_000.0, "server_crash", magnitude=1)]
    )
    assert len(crashed.finished_records()) == 2
    assert crashed.average_jct_s() > clean.average_jct_s() * 1.005


def test_crash_triggers_reallocation_in_same_round():
    tracer = Tracer()
    run(
        faults=[FaultEvent(2_000.0, "server_crash", magnitude=1)],
        tracer=tracer,
    )
    down = next(e for e in tracer.events if e.etype == "node_down")
    shrunk_cache_mb = cluster().total_cache_mb * 3 / 4
    decision = next(
        e
        for e in tracer.events
        if e.etype == "sched_decision" and e.ts_s >= down.ts_s
    )
    # Re-allocation happens in the very round the fault lands in, and
    # the allocator already respects the shrunk pool.
    assert decision.ts_s == pytest.approx(down.ts_s)
    assert decision.fields["cache_granted_mb"] <= shrunk_cache_mb + 1e-6


def test_crash_emits_fault_event_sequence():
    tracer = Tracer()
    run(
        faults=[FaultEvent(2_000.0, "server_crash", magnitude=1)],
        tracer=tracer,
    )
    etypes = {e.etype for e in tracer.events}
    assert {"fault_inject", "node_down", "cache_invalidate"} <= etypes
    preempts = [e for e in tracer.events if e.etype == "job_preempt"]
    # 1 GPU lost, each job holds 1 GPU: exactly the first sorted job.
    assert [e.job_id for e in preempts] == ["j0"]
    assert preempts[0].fields["reason"] == "server_crash"
    assert preempts[0].fields["rollback_mb"] >= 0.0
    invalidates = [
        e for e in tracer.events if e.etype == "cache_invalidate"
    ]
    assert all(
        e.fields["cause"] == "server_crash" for e in invalidates
    )
    assert all(e.fields["delta_mb"] > 0.0 for e in invalidates)


def test_explicit_preempt_holds_job_until_restart():
    clean = run()
    tracer = Tracer()
    faulted = run(
        faults=[
            FaultEvent(2_000.0, "job_preempt", target="j0"),
            FaultEvent(6_000.0, "job_restart", target="j0"),
        ],
        tracer=tracer,
    )
    assert len(faulted.finished_records()) == 2
    # j0 sat out 4000 s and lost its partial epoch: strictly worse.
    assert jct_of(faulted, "j0") > jct_of(clean, "j0") + 3_000.0
    etypes = [
        e.etype
        for e in tracer.events
        if e.job_id == "j0" and e.etype in ("job_preempt", "job_restart")
    ]
    assert etypes == ["job_preempt", "job_restart"]


def test_bandwidth_flap_degrades_jct():
    clean = run()
    flapped = run(
        faults=[
            FaultEvent(500.0, "bandwidth", magnitude=0.2),
            FaultEvent(4_000.0, "bandwidth", magnitude=1.0),
        ]
    )
    assert len(flapped.finished_records()) == 2
    assert flapped.average_jct_s() > clean.average_jct_s() * 1.005


def test_crash_then_recover_bounds_the_damage():
    clean = run()
    permanent = run(
        faults=[FaultEvent(2_000.0, "server_crash", magnitude=1)]
    )
    recovered = run(
        faults=[
            FaultEvent(2_000.0, "server_crash", magnitude=1),
            FaultEvent(4_000.0, "server_recover", magnitude=1),
        ]
    )
    assert len(recovered.finished_records()) == 2
    assert recovered.average_jct_s() > clean.average_jct_s() * 1.001
    # Getting the server back cannot be worse than never getting it back.
    assert recovered.average_jct_s() <= permanent.average_jct_s() + 1.0


def test_cache_loss_alone_preempts_nothing():
    tracer = Tracer()
    result = run(
        faults=[FaultEvent(2_000.0, "cache_loss", magnitude=30.0 * GB)],
        tracer=tracer,
    )
    assert len(result.finished_records()) == 2
    assert not any(e.etype == "job_preempt" for e in tracer.events)
    assert any(e.etype == "cache_invalidate" for e in tracer.events)


@pytest.mark.parametrize("simulator", ["fluid", "minibatch"])
@pytest.mark.parametrize(
    "faults",
    [
        # A running job that was never held, restarted after its
        # second epoch boundary.
        [FaultEvent(240.0, "job_restart", target="job-a")],
        # A server-crash victim (rolled back to its first boundary),
        # restarted after it crossed its second boundary again.
        [
            FaultEvent(150.0, "server_crash", magnitude=1),
            FaultEvent(300.0, "job_restart", target="job-a"),
        ],
    ],
    ids=["running", "crash_victim"],
)
def test_restart_reports_the_latest_epoch(simulator, faults):
    tracer = Tracer()
    run_experiment(
        small_cluster(), "fifo", "silod", two_job_trace(),
        simulator=simulator, faults=faults, tracer=tracer,
    )
    events = [e for e in tracer.events if e.job_id == "job-a"]
    restart_at = next(
        i for i, e in enumerate(events) if e.etype == "job_restart"
    )
    boundaries = [
        e.fields["epoch"]
        for e in events[:restart_at]
        if e.etype == "epoch_boundary"
    ]
    assert boundaries[-1] == 2
    assert events[restart_at].fields["epoch"] == boundaries[-1]
