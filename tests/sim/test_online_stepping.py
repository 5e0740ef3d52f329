"""The stepped-execution protocol both simulators expose for `repro.serve`.

``begin() / step(limit_s) / finish()`` plus the peek-only
``next_event_time()`` and the online mutators ``submit_job`` /
``cancel_job``. The batch ``run()`` executes exactly this protocol, so
stepping by hand must reproduce it bit-for-bit — including the
``loop_events`` counter perfbench reads.
"""

import dataclasses

import pytest

from repro import units
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.obs import Tracer
from repro.sim.fluid import FluidSimulator
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system
from repro.workloads.models import make_job

SIMULATORS = {"fluid": FluidSimulator, "minibatch": MinibatchEmulator}


def small_cluster() -> Cluster:
    return Cluster.build(
        num_servers=2,
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=units.gbps(1.6),
    )


def three_jobs():
    ds = Dataset(name="d-step", size_mb=units.gb(10))
    return [
        make_job(
            f"job-{i}", "resnet50", ds, num_gpus=1, num_epochs=2,
            submit_time_s=120.0 * i,
        )
        for i in range(3)
    ]


def build(sim_name, jobs, **kwargs):
    scheduler, cache = make_system("fifo", "silod")
    return SIMULATORS[sim_name](
        small_cluster(), scheduler, cache, jobs, **kwargs
    )


@pytest.mark.parametrize("sim_name", ["fluid", "minibatch"])
def test_manual_stepping_reproduces_run_exactly(sim_name):
    batch = build(sim_name, three_jobs())
    batch_result = batch.run()

    stepped = build(sim_name, three_jobs())
    stepped.begin()
    while stepped.step():
        pass
    stepped_result = stepped.finish()

    assert stepped.loop_events == batch.loop_events
    assert stepped.sched_rounds == batch.sched_rounds
    assert stepped.clock_s == batch.clock_s
    assert stepped_result.average_jct_s() == batch_result.average_jct_s()
    assert stepped_result.end_time_s == batch_result.end_time_s


@pytest.mark.parametrize("sim_name", ["fluid", "minibatch"])
def test_next_event_time_is_a_pure_peek(sim_name):
    sim = build(sim_name, three_jobs())
    sim.begin()
    t_next = sim.next_event_time()
    assert t_next is not None
    before = (sim.clock_s, sim.loop_events)
    assert sim.next_event_time() == t_next  # idempotent
    assert (sim.clock_s, sim.loop_events) == before  # no advance
    sim.step()
    assert sim.clock_s >= before[0]
    while sim.step():
        pass
    sim.finish()
    assert sim.next_event_time() is None  # drained


@pytest.mark.parametrize("sim_name", ["fluid", "minibatch"])
def test_limit_gate_holds_events_beyond_the_watermark(sim_name):
    sim = build(sim_name, three_jobs())
    sim.begin()
    t_next = sim.next_event_time()
    # A watermark before the first event: nothing may process.
    assert sim.step(limit_s=t_next - 60.0) is False
    assert sim.next_event_time() == t_next
    # Raising the watermark releases it.
    assert sim.step(limit_s=t_next) is True
    while sim.step():
        pass
    sim.finish()


def test_gated_step_does_not_count_loop_events():
    """The gate returns before the iteration counter (CI anchors)."""
    sim = build("fluid", three_jobs())
    sim.begin()
    counted = sim.loop_events
    t_next = sim.next_event_time()
    sim.step(limit_s=t_next - 60.0)
    assert sim.loop_events == counted


@pytest.mark.parametrize("sim_name", ["fluid", "minibatch"])
def test_submit_job_out_of_order_lands_in_arrival_order(sim_name):
    jobs = three_jobs()
    sim = build(sim_name, [])
    sim.begin()
    for job in reversed(jobs):  # worst-case wire order
        sim.submit_job(job)
    while sim.step():
        pass
    result = sim.finish()
    records = {r.job_id: r for r in result.finished_records()}
    assert set(records) == {"job-0", "job-1", "job-2"}
    # Arrival order == submit-time order, not wire order.
    assert (
        records["job-0"].start_time_s
        <= records["job-1"].start_time_s
        <= records["job-2"].start_time_s
    )


@pytest.mark.parametrize("sim_name", ["fluid", "minibatch"])
def test_submit_job_rejects_duplicates_even_after_finish(sim_name):
    jobs = three_jobs()
    sim = build(sim_name, jobs)
    sim.begin()
    while sim.step():
        pass
    with pytest.raises(ValueError):
        sim.submit_job(jobs[0])
    sim.finish()


@pytest.mark.parametrize("sim_name", ["fluid", "minibatch"])
def test_a_job_larger_than_the_fleet_is_refused(sim_name):
    """No allocation could start it, so a run holding it would never
    drain: the constructor and ``submit_job`` refuse it."""
    huge = make_job(
        "huge", "resnet50", Dataset(name="d-huge", size_mb=units.gb(10)),
        num_gpus=1000, num_epochs=1,
    )
    with pytest.raises(ValueError, match="1000 GPUs"):
        build(sim_name, three_jobs() + [huge])
    sim = build(sim_name, three_jobs())
    sim.begin()
    with pytest.raises(ValueError, match="1000 GPUs"):
        sim.submit_job(huge)
    # The whole fleet (8 GPUs) is not too large.
    sim.submit_job(dataclasses.replace(huge, job_id="fleet", num_gpus=8))
    while sim.step():
        pass
    assert len(sim.finish().finished_records()) == 4


@pytest.mark.parametrize("sim_name", ["fluid", "minibatch"])
def test_cancel_running_job_frees_it_and_run_completes(sim_name):
    sim = build(sim_name, three_jobs())
    sim.begin()
    sim.step()  # admit at least the first arrival
    assert sim.cancel_job("job-0", reason="test") is True
    assert sim.cancel_job("job-0") is False  # already gone
    assert sim.cancel_job("never-existed") is False
    while sim.step():
        pass
    result = sim.finish()
    finished = {r.job_id for r in result.finished_records()}
    assert finished == {"job-1", "job-2"}


@pytest.mark.parametrize("sim_name", ["fluid", "minibatch"])
def test_finish_right_after_a_cancel_samples_only_active_jobs(sim_name):
    """A cancel ends the round's view even when no reschedule follows
    (the emulator reallocates only at its next interval boundary)."""
    sim = build(sim_name, three_jobs())
    sim.begin()
    sim.step()
    assert sim.cancel_job("job-0", reason="test") is True
    result = sim.finish()
    last = result.timeline[-1]
    assert last.running_jobs + last.queued_jobs == len(sim._active)


def test_cancel_pending_job_before_arrival():
    """Cancelling a job still in the trace tail removes it unstarted."""
    for sim_name in ("fluid", "minibatch"):
        sim = build(sim_name, three_jobs())
        sim.begin()
        assert sim.cancel_job("job-2", reason="test") is True
        while sim.step():
            pass
        result = sim.finish()
        finished = {r.job_id for r in result.finished_records()}
        assert finished == {"job-0", "job-1"}, sim_name


@pytest.mark.parametrize("sim_name", ["fluid", "minibatch"])
def test_cancel_after_completion_is_refused(sim_name):
    """A job whose work is complete cannot be cancelled any more.

    The emulator notices completions only at its next interval
    boundary, so the job still sits in the active set when the cancel
    arrives; it must retire with ``job_finish``, not ``job_cancel``.
    """
    ds = Dataset(name="d-short", size_mb=units.gb(2))
    job = make_job(
        "short", "resnet50", ds, num_gpus=1, num_epochs=1,
        submit_time_s=0.0,
    )
    tracer = Tracer()
    sim = build(sim_name, [job], tracer=tracer)
    sim.begin()
    while sim.step(limit_s=59.0):
        pass
    assert sim.cancel_job("short") is False
    while sim.step():
        pass
    result = sim.finish()
    lifecycle = [e.etype for e in tracer.events if e.etype.startswith("job_")]
    assert lifecycle == ["job_submit", "job_start", "job_finish"]
    assert [r.job_id for r in result.finished_records()] == ["short"]
