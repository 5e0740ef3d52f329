"""Least-attained-service policy (Tiresias)."""

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.core.policies.base import ScheduleContext
from repro.core.policies.las import LasPolicy
from repro.core.resources import ResourceVector
from repro.core.silod import SiloDScheduler
from repro.sim.fluid import FluidSimulator
from repro.cache.silod_cache import SiloDDataManager

GB = 1024.0
TOTAL = ResourceVector(gpus=2, cache_mb=100.0 * GB, remote_io_mbps=100.0)


def job(job_id, submit=0.0, gpus=1):
    return Job(
        job_id=job_id,
        model="m",
        dataset=Dataset(f"d-{job_id}", 20.0 * GB),
        num_gpus=gpus,
        ideal_throughput_mbps=80.0,
        total_work_mb=2 * 20.0 * GB,
        submit_time_s=submit,
    )


def ctx_with_service(service):
    return ScheduleContext(
        attained_service_s=lambda j: service.get(j.job_id, 0.0)
    )


def test_least_attained_runs_first():
    policy = LasPolicy()
    jobs = [job("veteran"), job("newcomer", submit=10.0)]
    ctx = ctx_with_service({"veteran": 5_000.0, "newcomer": 0.0})
    ordered = policy.order(jobs, TOTAL, ctx)
    assert [j.job_id for j in ordered] == ["newcomer", "veteran"]


def test_without_service_info_falls_back_to_arrival():
    policy = LasPolicy()
    jobs = [job("late", submit=10.0), job("early", submit=1.0)]
    ordered = policy.order(jobs, TOTAL, ScheduleContext())
    assert [j.job_id for j in ordered] == ["early", "late"]


def test_schedule_attaches_storage():
    policy = LasPolicy()
    jobs = [job("a"), job("b")]
    alloc = policy.schedule(jobs, TOTAL, ScheduleContext())
    assert alloc.gpus_of("a") == 1
    assert sum(alloc.cache.values()) > 0


def test_las_end_to_end_preempts_veterans():
    """On a 1-GPU cluster LAS time-slices: the late-arriving job is not
    stuck behind the early one (unlike FIFO)."""
    cluster = Cluster.build(1, 1, 100.0 * GB, 200.0)
    early = job("early")
    late = job("late", submit=60.0)
    scheduler = SiloDScheduler(LasPolicy())
    result = FluidSimulator(
        cluster,
        scheduler,
        SiloDDataManager(),
        [early, late],
        reschedule_interval_s=120.0,
    ).run()
    by_id = {r.job_id: r for r in result.finished_records()}
    assert len(by_id) == 2
    # Under FIFO, 'late' would wait the whole 'early' runtime (~512 s of
    # work); under LAS its JCT reflects interleaved service instead.
    ideal_each = 2 * 20.0 * GB / 80.0
    assert by_id["late"].jct_s < 2.2 * ideal_each
