"""The report renderer: tables, timeline binning, dedup semantics."""

import pytest

from repro.obs import Tracer, render_report, save_timeline_csv, timeline_rows
from repro.obs import events as ev
from repro.obs.report import (
    cache_table,
    decision_audit,
    job_table,
    summary_rows,
)

pytestmark = pytest.mark.obs


@pytest.fixture
def tracer():
    t = Tracer()
    t.emit(
        0.0, ev.JOB_SUBMIT, "j1", model="resnet50", dataset="d",
        num_gpus=1, dataset_mb=100.0, total_work_mb=200.0, deadline_s=None,
    )
    t.emit(
        0.0, ev.SCHED_DECISION, policy="fifo", storage_aware=True,
        num_jobs=1, num_running=1, gpus_granted=1, cache_granted_mb=50.0,
        io_granted_mbps=20.0, latency_ms=0.2,
    )
    t.emit(0.0, ev.JOB_START, "j1", gpus=1, queue_delay_s=0.0)
    t.emit(
        0.0, ev.IO_THROTTLE, "j1", desired_mbps=40.0, hit_ratio=0.0,
        demand_mbps=40.0, grant_mbps=20.0, capped=True,
    )
    t.emit(
        60.0, ev.CACHE_ADMIT, key="d", delta_mb=50.0, resident_mb=50.0,
        via="miss",
    )
    t.emit(100.0, ev.EPOCH_BOUNDARY, "j1", epoch=1)
    t.emit(
        100.0, ev.PROMOTE_EFFECTIVE, "j1", key="d", effective_mb=50.0,
        reason="epoch_boundary",
    )
    t.emit(
        100.0, ev.IO_THROTTLE, "j1", desired_mbps=40.0, hit_ratio=0.5,
        demand_mbps=20.0, grant_mbps=20.0, capped=False,
    )
    t.emit(200.0, ev.JOB_FINISH, "j1", jct_s=200.0, epochs_done=2)
    return t


def test_job_table(tracer):
    rows = job_table(tracer.events)
    assert len(rows) == 1
    row = rows[0]
    assert row["job"] == "j1"
    assert row["jct_min"] == pytest.approx(200.0 / 60.0)
    assert row["epochs"] == 2


def test_timeline_reconstructs_achieved_throughput(tracer):
    rows = timeline_rows(tracer.events, bins=2)
    assert len(rows) == 2
    # First window: hit 0, grant 20 -> achieved = min(40, 20/(1-0)) = 20.
    assert rows[0]["achieved_mbps"] == pytest.approx(20.0)
    assert rows[0]["remote_io_mbps"] == pytest.approx(20.0)
    # Second window: hit 0.5, grant 20 -> min(40, 20/0.5) = 40 (f*-bound).
    assert rows[1]["achieved_mbps"] == pytest.approx(40.0)
    assert rows[1]["ideal_mbps"] == pytest.approx(40.0)


def test_io_throttle_dedup_keeps_last_per_round(tracer):
    # A re-emission at the same (ts, job) — e.g. the minibatch emulator's
    # measured-hit pass — must supersede the model-based event.
    tracer.emit(
        0.0, ev.IO_THROTTLE, "j1", desired_mbps=40.0, hit_ratio=0.25,
        demand_mbps=30.0, grant_mbps=20.0, capped=True,
    )
    rows = timeline_rows(tracer.events, bins=2)
    # achieved becomes min(40, 20/(1-0.25)) = 26.67 with the override.
    assert rows[0]["achieved_mbps"] == pytest.approx(20.0 / 0.75)


def test_decision_audit(tracer):
    rows = decision_audit(tracer.events)
    assert len(rows) == 1
    row = rows[0]
    assert row["policy"] == "fifo"
    assert row["rounds"] == 1
    assert row["mean_latency_ms"] == pytest.approx(0.2)


def test_cache_table(tracer):
    rows = cache_table(tracer.events)
    assert len(rows) == 1
    row = rows[0]
    assert row["key"] == "d"
    assert row["admitted_mb"] == pytest.approx(50.0)
    assert row["last_effective_mb"] == pytest.approx(50.0)


def test_summary_rows(tracer):
    stats = {r["metric"]: r["value"] for r in summary_rows(tracer.events)}
    assert stats["jobs submitted"] == 1
    assert stats["jobs finished"] == 1
    assert stats["events"] == len(tracer.events)


def test_render_report_contains_all_sections(tracer):
    text = render_report(tracer.events, bins=2)
    for title in (
        "run summary",
        "job lifecycle",
        "throughput timeline",
        "scheduler decision audit",
        "cache activity",
    ):
        assert title in text


def test_render_report_empty_log():
    assert "run summary" in render_report([])


def test_timeline_csv(tracer, tmp_path):
    path = tmp_path / "timeline.csv"
    save_timeline_csv(tracer.events, path, bins=2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_min,running,achieved_mbps,ideal_mbps,remote_io_mbps"
    assert len(lines) == 3
