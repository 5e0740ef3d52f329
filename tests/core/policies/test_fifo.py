"""FIFO policy."""

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.policies.base import ScheduleContext
from repro.core.policies.fifo import FifoPolicy
from repro.core.resources import ResourceVector


def job(job_id, submit, gpus=1, f_star=100.0, d_mb=1000.0):
    return Job(
        job_id=job_id,
        model="m",
        dataset=Dataset(f"d-{job_id}", d_mb),
        num_gpus=gpus,
        ideal_throughput_mbps=f_star,
        total_work_mb=2 * d_mb,
        submit_time_s=submit,
    )


TOTAL = ResourceVector(gpus=4, cache_mb=2000.0, remote_io_mbps=100.0)


def test_order_is_by_submit_time():
    policy = FifoPolicy()
    jobs = [job("b", 10.0), job("a", 5.0), job("c", 7.0)]
    ordered = policy.order(jobs, TOTAL, ScheduleContext())
    assert [j.job_id for j in ordered] == ["a", "c", "b"]


def test_admission_respects_capacity():
    policy = FifoPolicy()
    jobs = [job("a", 0, gpus=2), job("b", 1, gpus=2), job("c", 2, gpus=2)]
    alloc = policy.schedule(jobs, TOTAL, ScheduleContext(storage_aware=False))
    assert alloc.gpus_of("a") == 2
    assert alloc.gpus_of("b") == 2
    assert alloc.gpus_of("c") == 0


def test_backfill_skips_large_head():
    jobs = [job("small1", 0, gpus=2), job("big", 1, gpus=4), job("small2", 2, gpus=2)]
    alloc = FifoPolicy().schedule(
        jobs, TOTAL, ScheduleContext(storage_aware=False)
    )
    # big does not fit behind small1; small2 runs past it.
    assert alloc.gpus_of("small1") == 2
    assert alloc.gpus_of("big") == 0
    assert alloc.gpus_of("small2") == 2


def test_vanilla_mode_grants_no_storage():
    alloc = FifoPolicy().schedule(
        [job("a", 0)], TOTAL, ScheduleContext(storage_aware=False)
    )
    assert alloc.cache == {}
    assert alloc.remote_io == {}


def test_silod_mode_attaches_greedy_storage():
    jobs = [job("fast", 0, f_star=200.0), job("slow", 1, f_star=10.0)]
    alloc = FifoPolicy().schedule(jobs, TOTAL, ScheduleContext())
    # The cache-efficient job's dataset is cached first.
    assert alloc.cache_of("d-fast") == pytest.approx(1000.0)
    assert alloc.cache_of("d-slow") == pytest.approx(1000.0)
    # Steady state: fast is fully cached (no IO), slow gets its demand.
    assert alloc.remote_io_of("fast") == pytest.approx(0.0)
    assert alloc.remote_io_of("slow") == pytest.approx(0.0)


def test_silod_mode_uses_effective_cache_for_io():
    jobs = [job("fast", 0, f_star=200.0), job("slow", 1, f_star=10.0)]
    # Cold caches: demands are the full f*, waterfilled.
    ctx = ScheduleContext(effective_cache_mb={})
    alloc = FifoPolicy().schedule(jobs, TOTAL, ctx)
    assert alloc.remote_io_of("slow") == pytest.approx(10.0)
    assert alloc.remote_io_of("fast") == pytest.approx(90.0)
