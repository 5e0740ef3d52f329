"""RunResult metrics."""

import math

import pytest

from repro.sim.metrics import (
    JobRecord,
    RunResult,
    TimelineSample,
    improvement_factor,
    percentile_jct_minutes,
    relative_error,
)


def record(job_id, submit, finish, start=None):
    return JobRecord(
        job_id=job_id,
        model="m",
        dataset="d",
        num_gpus=1,
        submit_time_s=submit,
        start_time_s=start if start is not None else submit,
        finish_time_s=finish,
    )


def sample(time_s, fairness=1.0, resident=100.0, effective=90.0, running=1):
    return TimelineSample(
        time_s=time_s,
        running_jobs=running,
        queued_jobs=0,
        total_throughput_mbps=100.0,
        ideal_throughput_mbps=120.0,
        remote_io_used_mbps=50.0,
        fairness_ratio=fairness,
        resident_cache_mb=resident,
        effective_cache_mb=effective,
    )


def result(records, timeline=()):
    return RunResult(
        scheduler_name="fifo",
        cache_name="silod",
        records=records,
        timeline=list(timeline),
        end_time_s=1000.0,
    )


def test_average_jct_and_makespan():
    r = result([record("a", 0, 600), record("b", 60, 1200)])
    assert r.average_jct_s() == pytest.approx((600 + 1140) / 2)
    assert r.average_jct_minutes() == pytest.approx((600 + 1140) / 120)
    assert r.makespan_s() == pytest.approx(1200)


def test_unfinished_jobs_poison_makespan_not_jct():
    unfinished = JobRecord("c", "m", "d", 1, 0.0, None, None)
    r = result([record("a", 0, 600), unfinished])
    assert r.average_jct_s() == pytest.approx(600)
    assert math.isnan(r.makespan_s())
    assert not unfinished.finished
    assert math.isinf(unfinished.jct_s)


def test_fairness_and_effective_cache_averages():
    r = result(
        [record("a", 0, 60)],
        timeline=[
            sample(0, fairness=1.0),
            sample(600, fairness=3.0),
            sample(1200, fairness=float("nan")),
            sample(1800, fairness=2.0, running=0),  # idle: excluded
        ],
    )
    assert r.average_fairness_ratio() == pytest.approx(2.0)
    assert r.average_effective_cache_fraction() == pytest.approx(0.9)


def test_throughput_series_in_minutes():
    r = result([record("a", 0, 60)], timeline=[sample(0), sample(600)])
    series = r.throughput_series()
    assert series[1][0] == pytest.approx(10.0)  # 600 s = 10 min


def test_improvement_and_relative_error():
    assert improvement_factor(200.0, 100.0) == pytest.approx(2.0)
    assert math.isnan(improvement_factor(200.0, 0.0))
    assert relative_error(100.0, 103.0) == pytest.approx(0.03)
    assert math.isnan(relative_error(0.0, 1.0))


def test_percentiles():
    r = result([record(str(i), 0, 60 * (i + 1)) for i in range(100)])
    pct = percentile_jct_minutes(r, [0, 50, 100])
    assert pct[0] == pytest.approx(1.0)
    assert pct[100] == pytest.approx(100.0)
    assert 49 <= pct[50] <= 52
    with pytest.raises(ValueError):
        percentile_jct_minutes(r, [150])
