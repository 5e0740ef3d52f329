"""Job specification and progress accounting."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job, JobPhase, JobProgress


def make_job(**overrides):
    defaults = dict(
        job_id="j",
        model="resnet50",
        dataset=Dataset("d", 1000.0),
        num_gpus=1,
        ideal_throughput_mbps=100.0,
        total_work_mb=2500.0,
    )
    defaults.update(overrides)
    return Job(**defaults)


def test_job_validation():
    with pytest.raises(ValueError):
        make_job(num_gpus=0)
    with pytest.raises(ValueError):
        make_job(ideal_throughput_mbps=0.0)
    with pytest.raises(ValueError):
        make_job(total_work_mb=0.0)
    # NaN and Infinity slip past every ``<= 0`` check; a job holding
    # either never drains.
    for field in (
        "ideal_throughput_mbps",
        "total_work_mb",
        "weight",
        "deadline_s",
        "submit_time_s",
    ):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=field):
                make_job(**{field: value})


def test_job_derived_quantities():
    job = make_job()
    assert job.num_epochs == pytest.approx(2.5)
    assert job.ideal_duration_s == pytest.approx(25.0)
    # Eq 5: f*/d.
    assert job.cache_efficiency() == pytest.approx(0.1)


def test_progress_epochs_and_boundaries():
    progress = JobProgress(job=make_job())
    assert progress.epoch_index == 0
    assert progress.work_to_epoch_boundary_mb == pytest.approx(1000.0)
    progress.advance(1500.0)
    assert progress.epoch_index == 1
    assert progress.epoch_position_mb == pytest.approx(500.0)
    assert progress.work_to_epoch_boundary_mb == pytest.approx(500.0)
    # Final partial epoch: boundary capped at remaining work.
    progress.advance(600.0)  # work_done = 2100, epoch 2, 400 remaining
    assert progress.epoch_index == 2
    assert progress.work_to_epoch_boundary_mb == pytest.approx(400.0)


def test_progress_completion():
    progress = JobProgress(job=make_job())
    progress.advance(1e9)  # clamped to total work
    assert progress.work_done_mb == pytest.approx(2500.0)
    assert progress.done
    assert progress.remaining_work_mb == 0.0


def test_progress_epoch_snap_near_boundary():
    # Float drift just below a boundary must not strand the epoch index.
    progress = JobProgress(job=make_job())
    progress.work_done_mb = 1000.0 - 1e-9
    assert progress.epoch_index == 1
    assert progress.epoch_position_mb == pytest.approx(0.0, abs=1e-6)


def test_progress_rejects_negative_advance():
    progress = JobProgress(job=make_job())
    with pytest.raises(ValueError):
        progress.advance(-1.0)


def test_jct_requires_finish():
    progress = JobProgress(job=make_job(submit_time_s=10.0))
    with pytest.raises(RuntimeError):
        progress.jct_s()
    progress.finish_time_s = 110.0
    assert progress.jct_s() == pytest.approx(100.0)


def test_phase_default():
    assert JobProgress(job=make_job()).phase is JobPhase.PENDING


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_progress_invariants_under_any_advances(steps):
    """Property: progress accounting never goes out of range."""
    progress = JobProgress(job=make_job())
    for step in steps:
        progress.advance(step)
        assert 0.0 <= progress.work_done_mb <= progress.job.total_work_mb
        assert progress.remaining_work_mb >= 0.0
        assert 0 <= progress.epoch_index <= progress.job.num_epochs + 1
        assert (
            progress.work_to_epoch_boundary_mb
            <= progress.job.dataset.size_mb + 1e-6
        )


def test_deadline_validation():
    assert make_job().deadline_s is None
    assert make_job(deadline_s=3600.0).deadline_s == 3600.0
    with pytest.raises(ValueError):
        make_job(deadline_s=0.0)
    with pytest.raises(ValueError):
        make_job(deadline_s=-5.0)
