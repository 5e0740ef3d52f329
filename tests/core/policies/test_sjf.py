"""Multi-resource SJF (Eq 6-7)."""

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies.base import ScheduleContext
from repro.core.policies.sjf import SjfPolicy, candidate_allocations, sjf_score
from repro.core.resources import ResourceVector

TB = 1024.0 * 1024.0
TOTAL = ResourceVector(gpus=8, cache_mb=2 * TB, remote_io_mbps=200.0)
ESTIMATOR = SiloDPerfEstimator()


def job(job_id, f_star=114.0, d_mb=1.3 * TB, work_epochs=2.0, gpus=1):
    return Job(
        job_id=job_id,
        model="m",
        dataset=Dataset(f"d-{job_id}", d_mb),
        num_gpus=gpus,
        ideal_throughput_mbps=f_star,
        total_work_mb=work_epochs * d_mb,
    )


def test_vanilla_score_is_weighted_work():
    j = job("a", f_star=100.0, d_mb=1000.0, work_epochs=3.0)
    score = sjf_score(j, TOTAL, ESTIMATOR, storage_aware=False)
    # (1 gpu / 8 gpus) * 3000 MB / 100 MB/s
    assert score == pytest.approx((1 / 8) * 30.0)


def test_shorter_jobs_score_lower():
    short = job("short", work_epochs=1.0)
    long = job("long", work_epochs=10.0)
    assert sjf_score(short, TOTAL, ESTIMATOR, False) < sjf_score(
        long, TOTAL, ESTIMATOR, False
    )


def test_eq7_prefers_smaller_dataset_among_equals():
    """The paper's example: two ResNet-50s with the same steps; the
    ImageNet-1k one consumes less cache, so it scores lower (runs first)."""
    work = 1.3 * TB  # identical total work for both
    small = Job(
        job_id="in1k",
        model="resnet50",
        dataset=Dataset("imagenet-1k", 143.0 * 1024),
        num_gpus=1,
        ideal_throughput_mbps=114.0,
        total_work_mb=work,
    )
    big = Job(
        job_id="in22k",
        model="resnet50",
        dataset=Dataset("imagenet-22k", 1.3 * TB),
        num_gpus=1,
        ideal_throughput_mbps=114.0,
        total_work_mb=work,
    )
    assert sjf_score(small, TOTAL, ESTIMATOR, True) < sjf_score(
        big, TOTAL, ESTIMATOR, True
    )


def test_candidate_allocations_run_at_f_star():
    j = job("a")
    for resources in candidate_allocations(j, TOTAL):
        assert ESTIMATOR.estimate_vector(j, resources) == pytest.approx(
            j.ideal_throughput_mbps
        )


def test_candidates_are_cache_endpoints():
    j = job("a", d_mb=1000.0)
    no_cache, full_cache = candidate_allocations(j, TOTAL)
    assert no_cache.cache_mb == 0.0
    assert full_cache.cache_mb == pytest.approx(1000.0)


def test_schedule_preempts_by_score():
    policy = SjfPolicy()
    jobs = [job(f"long{i}", work_epochs=20.0, gpus=4) for i in range(2)]
    jobs.append(job("short", work_epochs=0.5, gpus=4))
    alloc = policy.schedule(jobs, TOTAL, ScheduleContext())
    # Only 8 GPUs: the short job plus one long job run.
    assert alloc.gpus_of("short") == 4
    running = [j for j in jobs if alloc.gpus_of(j.job_id) > 0]
    assert len(running) == 2


def test_io_priority_order_protects_short_jobs():
    policy = SjfPolicy()
    # Two jobs, combined demand over the 200 MB/s egress.
    jobs = [
        job("short", f_star=150.0, work_epochs=0.5),
        job("long", f_star=150.0, work_epochs=20.0),
    ]
    ctx = ScheduleContext(effective_cache_mb={})
    alloc = policy.schedule(jobs, TOTAL, ctx)
    assert alloc.remote_io_of("short") == pytest.approx(150.0)
    assert alloc.remote_io_of("long") == pytest.approx(50.0)


def test_irregular_jobs_score_with_original_estimator():
    j = job("a")
    j_irr = Job(
        job_id="irr",
        model="m",
        dataset=j.dataset,
        num_gpus=1,
        ideal_throughput_mbps=114.0,
        total_work_mb=j.total_work_mb,
        regular=False,
    )
    assert sjf_score(j_irr, TOTAL, ESTIMATOR, True) == pytest.approx(
        sjf_score(j_irr, TOTAL, ESTIMATOR, False)
    )
