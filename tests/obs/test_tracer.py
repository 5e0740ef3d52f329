"""Tracer behaviour: event ordering, validation, metrics, no-op path."""

import copy
import pickle

import pytest

from repro.cache.base import StorageContext, trace_io_grants
from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator
from repro.obs import events as ev
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
    tracer.emit(
        0.0, "job_submit", "j1", model="resnet50", dataset="d",
        num_gpus=2, dataset_mb=100.0, total_work_mb=300.0, deadline_s=None,
    )
    tracer.emit(1.0, "job_start", "j1", gpus=2, queue_delay_s=1.0)
    tracer.emit(
        1.0, "sched_decision", policy="fifo", storage_aware=True,
        num_jobs=1, num_running=1, gpus_granted=2, cache_granted_mb=50.0,
        io_granted_mbps=10.0, latency_ms=0.5,
    )
    tracer.emit(2.0, "alloc_change", "j1", gpus_before=2, gpus_after=1)
    tracer.emit(
        2.0, "cache_admit", key="d", delta_mb=40.0, resident_mb=40.0,
        via="miss",
    )
    tracer.emit(
        3.0, "cache_evict", key="d", delta_mb=10.0, resident_mb=30.0,
        reason="target_shrink",
    )
    tracer.emit(
        4.0, "promote_effective", "j1", key="d", effective_mb=30.0,
        reason="epoch_boundary",
    )
    tracer.emit(4.0, "epoch_boundary", "j1", epoch=1)
    tracer.emit(
        4.0, "io_throttle", "j1", desired_mbps=20.0, hit_ratio=0.3,
        demand_mbps=14.0, grant_mbps=10.0, capped=True,
    )
    tracer.emit(
        4.5, "fault_inject", kind="server_crash", target="", magnitude=1.0
    )
    tracer.emit(
        4.5, "node_down", kind="server", gpus_lost=8.0, cache_lost_mb=64.0
    )
    tracer.emit(
        4.5, "cache_invalidate", key="d", delta_mb=5.0, resident_mb=25.0,
        cause="server_crash",
    )
    tracer.emit(
        4.5, "job_preempt", "j1", reason="server_crash", rollback_mb=10.0,
        epoch=1,
    )
    tracer.emit(
        4.8, "node_up", kind="server", gpus_restored=8.0,
        cache_restored_mb=64.0,
    )
    tracer.emit(4.8, "job_restart", "j1", reason="job_restart", epoch=1)
    tracer.emit(
        4.9, "decision_epoch", round=1, trigger="reschedule",
        num_running=1, num_queued=0, gpus_total=8.0, cache_total_mb=64.0,
        io_total_mbps=100.0,
    )
    tracer.emit(
        4.9, "decision_job", "j1", round=1, gpus=2.0, cache_mb=50.0,
        io_mbps=10.0, f_star_mbps=20.0, hit_ratio=0.3, est_mbps=14.3,
        io_bound=True, eff_cache_mb=30.0, score=0.0, generation="V100",
        f_star_gen_mbps={"V100": 20.0},
    )
    tracer.emit(
        4.9, "slo_warn", "j1", deadline_s=6.0, elapsed_s=4.9,
        remaining_s=1.1, ratio=0.8167,
    )
    tracer.emit(
        5.0, "slo_violation", "j1", deadline_s=4.0, jct_s=5.0,
        overrun_s=1.0, state="finished",
    )
    tracer.emit(5.0, "job_finish", "j1", jct_s=5.0, epochs_done=1)
    tracer.emit(
        0.0, "service_start", policy="fifo", cache="silod",
        simulator="fluid", gpus=16.0, queue_limit=64,
    )
    tracer.emit(
        0.0, "clock_set", action="resume", speedup=0.0, virtual_s=0.0
    )
    tracer.emit(
        5.5, "job_reject", "j2", reason="queue_full", queue_depth=64
    )
    tracer.emit(
        5.5, "job_cancel", "j1", reason="user", work_done_mb=120.0
    )
    tracer.emit(
        6.0, "service_stop", reason="drained", jobs_submitted=2,
        jobs_finished=1,
    )


def test_fixture_emits_every_event_type():
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
    tracer.emit(1.0, ev.EPOCH_BOUNDARY, "a", epoch=1)
    tracer.emit(1.0, ev.EPOCH_BOUNDARY, "b", epoch=1)
    tracer.emit(1.0, ev.EPOCH_BOUNDARY, "c", epoch=1)
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


def test_event_compares_all_five_fields_and_keeps_its_repr():
    event = Event(1.5, "epoch_boundary", "j", {"epoch": 2}, 7)
    assert event == Event(
        ts_s=1.5, etype="epoch_boundary", job_id="j", fields={"epoch": 2},
        seq=7,
    )
    for other in (
        Event(2.0, "epoch_boundary", "j", {"epoch": 2}, 7),
        Event(1.5, "job_start", "j", {"epoch": 2}, 7),
        Event(1.5, "epoch_boundary", None, {"epoch": 2}, 7),
        Event(1.5, "epoch_boundary", "j", {"epoch": 3}, 7),
        Event(1.5, "epoch_boundary", "j", {"epoch": 2}, 8),
    ):
        assert event != other
    assert event != (1.5, "epoch_boundary", "j", {"epoch": 2}, 7)
    assert repr(event) == (
        "Event(ts_s=1.5, etype='epoch_boundary', job_id='j', "
        "fields={'epoch': 2}, seq=7)"
    )
    bare = Event(0.0, "job_submit")
    assert (bare.job_id, bare.fields, bare.seq) == (None, {}, 0)
    with pytest.raises(TypeError):
        hash(event)
    assert Event.from_dict(event.to_dict()) == event


def test_event_is_an_immutable_flat_record():
    event = Event(1.5, "cache_admit", "j", {"key": "d", "delta_mb": 2.0}, 7)
    # Field order is ignored; the flat layout is not a plain tuple.
    swapped = Event(1.5, "cache_admit", "j", {"delta_mb": 2.0, "key": "d"}, 7)
    assert event == swapped
    assert not event != swapped
    assert event != tuple(event) and tuple(event) != event
    with pytest.raises(TypeError):
        sorted([event, event])
    with pytest.raises(AttributeError):
        event.seq = 8
    event.fields["key"] = "other"
    assert event.fields == {"key": "d", "delta_mb": 2.0}
    # One names tuple per field layout, shared by every event using it.
    tracer = StreamingTracer()
    for ts in (0.0, 1.0):
        tracer.emit(ts, "epoch_boundary", "j", epoch=1)
    first, second = tracer.events
    assert first[4] is second[4]
    assert copy.deepcopy(event) == event
    assert pickle.loads(pickle.dumps(event)) == event


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
    counters = snap["cluster"]["counters"]
    assert counters["cache.invalidated_mb"] == 5.0
    assert counters["faults.injected"] == 1
    assert snap["jobs"]["j1"]["counters"]["faults.preemptions"] == 1
    assert counters["serve.rejected"] == 1
    assert counters["slo.warnings"] == 1
    assert counters["slo.violations"] == 1
    windows = snap["cluster"]["windows"]
    assert windows["jct_s"]["p50"] == 5.0
    assert windows["decision_latency_ms"]["p50"] == 0.5
    assert windows["queue_depth"]["p50"] == 0.0
    assert windows["cache_hit_ratio"]["p50"] == 0.3


def test_io_throttle_derives_capped_flag():
    """``trace_io_grants`` flags a grant below the induced demand."""
    tracer = Tracer()
    jobs = [
        Job(
            job_id=job_id,
            model="m",
            dataset=Dataset("d", 100.0),
            num_gpus=1,
            ideal_throughput_mbps=10.0,
            total_work_mb=200.0,
        )
        for job_id in ("full", "short")
    ]
    ctx = StorageContext(
        running_jobs=jobs,
        gpu_grants={"full": 1.0, "short": 1.0},
        total_gpus=2.0,
        total_cache_mb=0.0,
        total_io_mbps=14.0,
        effective_mb={},
        first_epoch_done=lambda job: True,
        estimator=SiloDPerfEstimator(),
        f_stars=[10.0, 10.0],
        tracer=tracer,
    )
    trace_io_grants(
        ctx, hit_ratios={"full": 0.0, "short": 0.0},
        io_grants={"full": 10.0, "short": 4.0},
    )
    assert [e.fields["capped"] for e in tracer.events] == [False, True]
    counters = tracer.metrics.snapshot()["jobs"]
    assert "io.throttled_rounds" not in counters["full"]["counters"]
    assert counters["short"]["counters"]["io.throttled_rounds"] == 1


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    assert not tracer.enabled
    _emit_one_of_each(tracer)
    assert len(tracer) == 0
    assert tracer.metrics.snapshot() == {
        "schema_version": 3,
        "cluster": {"counters": {}},
        "jobs": {},
    }
    assert not NULL_TRACER.enabled


def test_max_events_cap_drops_and_counts():
    tracer = Tracer(max_events=3)
    for i in range(5):
        tracer.emit(float(i), ev.EPOCH_BOUNDARY, "j", epoch=i + 1)
    assert len(tracer.events) == 3
    assert tracer.dropped == 2


@pytest.mark.parametrize("tracer_cls", [Tracer, StreamingTracer])
def test_max_events_cap_still_counts_every_event(tracer_cls):
    tracer = tracer_cls(max_events=1)
    for i in range(5):
        tracer.emit(
            float(i), ev.JOB_FINISH, f"j{i}", jct_s=10.0, epochs_done=1
        )
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
        "schema_version": 3,
        "cluster": {"counters": {}},
        "jobs": {},
    }


def test_event_fields_schema_has_no_envelope_collisions():
    for etype, fields in EVENT_FIELDS.items():
        assert len(set(fields)) == len(fields), etype
        for reserved in ("seq", "ts_s", "etype", "job_id"):
            assert reserved not in fields, etype
