"""Job specification, and progress accounting through the fluid job
table's row view."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.sim.jobtable import JobRow, JobTable


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


def admit(job):
    """A job table holding ``job`` at 1 MB/s, and the job's row view."""
    table = JobTable(rate_eps=1e-9, work_eps_mb=1e-3, snap_mb=1e-3)
    state = JobRow(
        job, table.admit(job.job_id, job.total_work_mb, job.dataset.size_mb),
        table,
    )
    table.set_rates_bulk([state.row], [1.0], [0.0])
    return table, state


def test_progress_epochs_and_boundaries():
    table, state = admit(make_job())
    assert state.epoch_index == 0
    assert table.next_epoch_boundary_time(0.0) == pytest.approx(1000.0)
    table.advance(1500.0, 1500.0)
    assert state.epoch_index == 1
    assert table.next_epoch_boundary_time(0.0) == pytest.approx(500.0)
    # Final partial epoch: its boundary is the completion itself.
    table.advance(600.0, 2100.0)  # work_done = 2100, epoch 2, 400 remaining
    assert state.epoch_index == 2
    assert table.next_completion_time(0.0) == pytest.approx(400.0)
    assert math.isinf(table.next_epoch_boundary_time(0.0))
    # A preemption loses the position within the epoch.
    assert table.rollback_epoch(state.row) == pytest.approx(100.0)
    assert state.work_done_mb == pytest.approx(2000.0)
    assert state.epoch_index == 2


def test_progress_completion():
    table, state = admit(make_job())
    table.advance(1e9, 1e9)  # clamped to total work
    assert state.work_done_mb == pytest.approx(2500.0)
    assert state.done
    assert table.completed_rows() == [state.row]


def test_progress_epoch_snap_near_boundary():
    # Float drift just below a boundary must not strand the epoch index.
    table, state = admit(make_job())
    table.advance(1000.0 - 1e-9, 1000.0 - 1e-9)
    assert state.epoch_index == 1
    assert table.rollback_epoch(state.row) == pytest.approx(0.0, abs=1e-6)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_progress_invariants_under_any_advances(steps):
    """Property: progress accounting never goes out of range."""
    table, state = admit(make_job())
    job = state.job
    clock_s = 0.0
    for step in steps:
        clock_s += step
        table.advance(step, clock_s)
        assert 0.0 <= state.work_done_mb <= job.total_work_mb
        assert 0 <= state.epoch_index <= job.num_epochs + 1
    epoch = state.epoch_index
    assert 0.0 <= table.rollback_epoch(state.row) <= job.dataset.size_mb
    assert state.epoch_index == epoch
    assert state.work_done_mb == pytest.approx(epoch * job.dataset.size_mb)


def test_deadline_validation():
    assert make_job().deadline_s is None
    assert make_job(deadline_s=3600.0).deadline_s == 3600.0
    with pytest.raises(ValueError):
        make_job(deadline_s=0.0)
    with pytest.raises(ValueError):
        make_job(deadline_s=-5.0)
