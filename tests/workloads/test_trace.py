"""Synthetic trace generation."""

import numpy as np
import pytest

from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    expected_gpu_seconds_per_job,
    figure4_trace,
    generate_trace,
    microbenchmark_trace,
)


def test_trace_is_reproducible():
    a = generate_trace(TraceConfig(num_jobs=50, seed=7))
    b = generate_trace(TraceConfig(num_jobs=50, seed=7))
    assert [j.job_id for j in a] == [j.job_id for j in b]
    assert [j.submit_time_s for j in a] == [j.submit_time_s for j in b]
    assert [j.total_work_mb for j in a] == [j.total_work_mb for j in b]
    c = generate_trace(TraceConfig(num_jobs=50, seed=8))
    assert [j.total_work_mb for j in c] != [j.total_work_mb for j in a]


def test_trace_respects_bounds():
    cfg = TraceConfig(num_jobs=200, seed=1)
    jobs = generate_trace(cfg)
    assert len(jobs) == 200
    gpu_counts = {g for g, _p in cfg.gpu_mix}
    for job in jobs:
        assert job.num_gpus in gpu_counts
        ideal = job.total_work_mb / job.ideal_throughput_mbps
        assert (
            cfg.duration_min_s - 1e-6
            <= ideal
            <= cfg.duration_max_s + 1e-6
        )
    submits = [j.submit_time_s for j in jobs]
    assert submits == sorted(submits)


def test_arrivals_are_poisson():
    cfg = TraceConfig(num_jobs=2000, seed=3, mean_interarrival_s=120.0)
    submits = [j.submit_time_s for j in generate_trace(cfg)]
    gaps = np.diff([0.0] + submits)
    # Exponential gaps: mean ~ 120, CV ~ 1.
    assert np.mean(gaps) == pytest.approx(120.0, rel=0.1)
    assert np.std(gaps) / np.mean(gaps) == pytest.approx(1.0, abs=0.15)


def test_private_datasets_by_default():
    jobs = generate_trace(TraceConfig(num_jobs=30, seed=2))
    names = [j.dataset.name for j in jobs]
    assert len(set(names)) == len(names)


def test_shared_dataset_fraction():
    cfg = TraceConfig(num_jobs=300, seed=3, shared_dataset_fraction=1.0)
    jobs = generate_trace(cfg)
    names = {j.dataset.name for j in jobs}
    # Everyone draws from the shared pool (one instance per mix entry).
    assert len(names) <= 11
    assert all("shared" in n for n in names)

    half = TraceConfig(num_jobs=400, seed=3, shared_dataset_fraction=0.5)
    shared = sum(
        1 for j in generate_trace(half) if "shared" in j.dataset.name
    )
    assert 0.4 <= shared / 400 <= 0.6


def test_gpu_scale_raises_throughput():
    base = generate_trace(TraceConfig(num_jobs=20, seed=4))
    fast = generate_trace(TraceConfig(num_jobs=20, seed=4, gpu_scale=4.0))
    for slow_job, fast_job in zip(base, fast):
        assert fast_job.ideal_throughput_mbps == pytest.approx(
            4 * slow_job.ideal_throughput_mbps
        )


def test_arrival_rate_for_load():
    cfg = TraceConfig()
    per_job = expected_gpu_seconds_per_job(cfg)
    interarrival = arrival_rate_for_load(cfg, total_gpus=96, load=1.0)
    assert interarrival == pytest.approx(per_job / 96)
    # Doubling the load halves the inter-arrival gap.
    assert arrival_rate_for_load(cfg, 96, 2.0) == pytest.approx(
        interarrival / 2
    )
    with pytest.raises(ValueError):
        arrival_rate_for_load(cfg, 0, 1.0)


def test_microbenchmark_trace_matches_paper_setup():
    jobs = microbenchmark_trace()
    assert len(jobs) == 5
    by_model = {}
    for job in jobs:
        by_model.setdefault(job.model, []).append(job)
    assert len(by_model["resnet50"]) == 2
    assert len(by_model["efficientnet-b1"]) == 2
    bert = by_model["bert"][0]
    assert bert.num_gpus == 4
    assert bert.num_epochs == pytest.approx(0.07)
    assert bert.ideal_throughput_mbps == pytest.approx(8.0)
    # Image jobs each use a distinct 1.3 TB dataset.
    image_datasets = {
        j.dataset.name for j in jobs if j.model != "bert"
    }
    assert len(image_datasets) == 4


def test_figure4_trace():
    jobs = figure4_trace()
    assert len(jobs) == 2
    assert jobs[0].dataset.name != jobs[1].dataset.name
    assert jobs[0].dataset.size_mb == jobs[1].dataset.size_mb
