"""The SiloD-enhanced performance estimator (Algorithm 1 line 5)."""

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator, linear_compute_estimator
from repro.core.resources import ResourceVector


def make_job(regular=True, num_gpus=4):
    return Job(
        job_id="j",
        model="resnet50",
        dataset=Dataset("d", 1000.0),
        num_gpus=num_gpus,
        ideal_throughput_mbps=400.0,
        total_work_mb=4000.0,
        regular=regular,
    )


def test_linear_compute_estimator_scales_and_caps():
    job = make_job()
    assert linear_compute_estimator(job, 4) == pytest.approx(400.0)
    assert linear_compute_estimator(job, 2) == pytest.approx(200.0)
    # Extra GPUs beyond the request give nothing.
    assert linear_compute_estimator(job, 8) == pytest.approx(400.0)


def test_estimate_is_min_of_perf_and_ioperf():
    estimator = SiloDPerfEstimator()
    job = make_job()
    # IO-bound: 100 MB/s remote, no cache.
    assert estimator.estimate(job, 4, 0.0, 100.0) == pytest.approx(100.0)
    # Cache halves the misses: the same 100 MB/s supports 200 MB/s.
    assert estimator.estimate(job, 4, 500.0, 100.0) == pytest.approx(200.0)
    # Compute-bound once IO suffices.
    assert estimator.estimate(job, 4, 900.0, 100.0) == pytest.approx(400.0)


def test_irregular_jobs_use_original_estimator():
    estimator = SiloDPerfEstimator()
    job = make_job(regular=False)
    # Storage starvation is invisible to the original estimator (§6).
    assert estimator.estimate(job, 4, 0.0, 0.0) == pytest.approx(400.0)


def test_estimate_vector_matches_scalar_form():
    estimator = SiloDPerfEstimator()
    job = make_job()
    vec = ResourceVector(gpus=4, cache_mb=500.0, remote_io_mbps=100.0)
    assert estimator.estimate_vector(job, vec) == estimator.estimate(
        job, 4, 500.0, 100.0
    )


def test_custom_compute_estimator_is_used():
    estimator = SiloDPerfEstimator(compute_estimator=lambda job, gpus: 42.0)
    job = make_job()
    assert estimator.compute_bound(job, 1) == 42.0
    assert estimator.estimate(job, 1, job.dataset.size_mb, 0.0) == 42.0
