"""Tracer behaviour: event ordering, validation, metrics, no-op path."""

import pytest

from repro.obs import (
    EVENT_FIELDS,
    EVENT_TYPES,
    NULL_TRACER,
    Event,
    NullTracer,
    StreamingTracer,
    Tracer,
    validate_event,
)

pytestmark = pytest.mark.obs


def _emit_one_of_each(tracer):
    tracer.job_submit(
        0.0, "j1", model="resnet50", dataset="d", num_gpus=2,
        dataset_mb=100.0, total_work_mb=300.0,
    )
    tracer.job_start(1.0, "j1", gpus=2, queue_delay_s=1.0)
    tracer.sched_decision(
        1.0, policy="fifo", storage_aware=True, num_jobs=1, num_running=1,
        gpus_granted=2, cache_granted_mb=50.0, io_granted_mbps=10.0,
        latency_ms=0.5,
    )
    tracer.alloc_change(2.0, "j1", gpus_before=2, gpus_after=1)
    tracer.cache_admit(2.0, "d", delta_mb=40.0, resident_mb=40.0, via="miss")
    tracer.cache_evict(
        3.0, "d", delta_mb=10.0, resident_mb=30.0, reason="target_shrink"
    )
    tracer.promote_effective(
        4.0, "j1", key="d", effective_mb=30.0, reason="epoch_boundary"
    )
    tracer.epoch_boundary(4.0, "j1", epoch=1)
    tracer.io_throttle(
        4.0, "j1", desired_mbps=20.0, hit_ratio=0.3,
        demand_mbps=14.0, grant_mbps=10.0,
    )
    tracer.fault_inject(4.5, kind="server_crash", target="", magnitude=1.0)
    tracer.node_down(4.5, kind="server", gpus_lost=8.0, cache_lost_mb=64.0)
    tracer.cache_invalidate(
        4.5, "d", delta_mb=5.0, resident_mb=25.0, cause="server_crash"
    )
    tracer.job_preempt(
        4.5, "j1", reason="server_crash", rollback_mb=10.0, epoch=1
    )
    tracer.node_up(4.8, kind="server", gpus_restored=8.0, cache_restored_mb=64.0)
    tracer.job_restart(4.8, "j1", reason="job_restart", epoch=1)
    tracer.decision_epoch(
        4.9, round=1, trigger="reschedule", num_running=1, num_queued=0,
        gpus_total=8.0, cache_total_mb=64.0, io_total_mbps=100.0,
    )
    tracer.decision_job(
        4.9, "j1", round=1, gpus=2.0, cache_mb=50.0, io_mbps=10.0,
        f_star_mbps=20.0, hit_ratio=0.3, est_mbps=14.3, io_bound=True,
        eff_cache_mb=30.0, score=0.0, generation="V100",
        f_star_gen_mbps={"V100": 20.0},
    )
    tracer.slo_warn(
        4.9, "j1", deadline_s=6.0, elapsed_s=4.9, remaining_s=1.1,
        ratio=0.8167,
    )
    tracer.slo_violation(
        5.0, "j1", deadline_s=4.0, jct_s=5.0, overrun_s=1.0,
        state="finished",
    )
    tracer.job_finish(5.0, "j1", jct_s=5.0, epochs_done=1)
    tracer.service_start(
        0.0, policy="fifo", cache="silod", simulator="fluid",
        gpus=16.0, queue_limit=64,
    )
    tracer.clock_set(0.0, action="resume", speedup=0.0, virtual_s=0.0)
    tracer.job_reject(5.5, "j2", reason="queue_full", queue_depth=64)
    tracer.job_cancel(5.5, "j1", reason="user", work_done_mb=120.0)
    tracer.service_stop(6.0, reason="drained", jobs_submitted=2, jobs_finished=1)


def test_typed_helpers_cover_every_event_type():
    tracer = Tracer()
    _emit_one_of_each(tracer)
    assert sorted({e.etype for e in tracer.events}) == sorted(EVENT_TYPES)


def test_events_are_schema_valid_and_sequenced():
    tracer = Tracer()
    _emit_one_of_each(tracer)
    for event in tracer.events:
        validate_event(event)
    seqs = [e.seq for e in tracer.events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_emission_order_is_preserved_under_timestamp_ties():
    tracer = Tracer()
    tracer.epoch_boundary(1.0, "a", epoch=1)
    tracer.epoch_boundary(1.0, "b", epoch=1)
    tracer.epoch_boundary(1.0, "c", epoch=1)
    assert [e.job_id for e in tracer.events] == ["a", "b", "c"]


def test_validate_event_rejects_unknown_type_and_bad_fields():
    with pytest.raises(ValueError):
        validate_event(Event(0.0, "not_a_type"))
    with pytest.raises(ValueError):
        validate_event(Event(0.0, "epoch_boundary", "j", {}))
    with pytest.raises(ValueError):
        validate_event(
            Event(0.0, "epoch_boundary", "j", {"epoch": 1, "bogus": 2})
        )


def test_metrics_counters_track_events():
    tracer = Tracer()
    _emit_one_of_each(tracer)
    snap = tracer.metrics.snapshot()
    assert snap["cluster"]["counters"]["events_total"] == len(tracer.events)
    assert snap["cluster"]["counters"]["events.job_submit"] == 1
    assert snap["cluster"]["counters"]["cache.admitted_mb"] == 40.0
    assert snap["cluster"]["counters"]["cache.evicted_mb"] == 10.0
    # io_throttle above was capped (grant < demand).
    assert snap["jobs"]["j1"]["counters"]["io.throttled_rounds"] == 1


def test_io_throttle_derives_capped_flag():
    tracer = Tracer()
    tracer.io_throttle(
        0.0, "j", desired_mbps=10.0, hit_ratio=0.0,
        demand_mbps=10.0, grant_mbps=10.0,
    )
    tracer.io_throttle(
        0.0, "j", desired_mbps=10.0, hit_ratio=0.0,
        demand_mbps=10.0, grant_mbps=4.0,
    )
    assert [e.fields["capped"] for e in tracer.events] == [False, True]


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    assert not tracer.enabled
    _emit_one_of_each(tracer)
    assert len(tracer) == 0
    assert tracer.metrics.snapshot() == {
        "schema_version": 2,
        "cluster": {"counters": {}, "gauges": {}},
        "jobs": {},
    }
    assert not NULL_TRACER.enabled


def test_max_events_cap_drops_and_counts():
    tracer = Tracer(max_events=3)
    for i in range(5):
        tracer.epoch_boundary(float(i), "j", epoch=i + 1)
    assert len(tracer.events) == 3
    assert tracer.dropped == 2


@pytest.mark.parametrize("tracer_cls", [Tracer, StreamingTracer])
def test_max_events_cap_still_counts_every_event(tracer_cls):
    tracer = tracer_cls(max_events=1)
    for i in range(5):
        tracer.job_finish(float(i), f"j{i}", jct_s=10.0, epochs_done=1)
    assert len(tracer.events) == 1
    assert tracer.dropped == 4
    snapshot = tracer.metrics.snapshot()
    counters = snapshot["cluster"]["counters"]
    assert counters["events_total"] == 5
    assert counters["events.job_finish"] == 5
    assert sorted(snapshot["jobs"]) == [f"j{i}" for i in range(5)]
    for i in range(5):
        job_counters = snapshot["jobs"][f"j{i}"]["counters"]
        assert job_counters["events.job_finish"] == 1


def test_clear_resets_events_and_metrics():
    tracer = Tracer()
    _emit_one_of_each(tracer)
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.metrics.snapshot() == {
        "schema_version": 2,
        "cluster": {"counters": {}, "gauges": {}},
        "jobs": {},
    }


def test_event_fields_schema_has_no_envelope_collisions():
    for etype, fields in EVENT_FIELDS.items():
        assert len(set(fields)) == len(fields), etype
        for reserved in ("seq", "ts_s", "etype", "job_id"):
            assert reserved not in fields, etype
