"""Online engine behaviour (`repro.serve.engine.OnlineEngine`)."""

import json
import time

import pytest

from repro import units
from repro.cluster.hardware import Cluster
from repro.obs import events as ev
from repro.serve import ProtocolError
from repro.serve.protocol import (
    REJECT_DUPLICATE,
    REJECT_INVALID,
    REJECT_QUEUE_FULL,
    REJECT_SHUTTING_DOWN,
)

from .conftest import job_payload, make_engine

pytestmark = pytest.mark.serve


def test_submissions_stage_while_deep_paused_then_run_on_drain():
    engine = make_engine()
    engine.start()
    for i in range(3):
        response = engine.submit(job_payload(f"job-{i}"))
        assert response["ok"] is True
    # Deep-paused: nothing processed yet, not even t=0 arrivals.
    assert engine.status()["job_counts"].get("accepted") == 3
    engine.pump()
    assert engine.status()["job_counts"].get("accepted") == 3
    result = engine.drain()
    assert engine.jobs_finished == 3
    assert len(result.finished_records()) == 3


def test_clock_step_admits_exactly_the_released_prefix():
    engine = make_engine()
    engine.start()
    engine.submit(job_payload("early", submit_time_s=0.0))
    engine.submit(job_payload("late", submit_time_s=7200.0))
    engine.clock_op("step", to_s=10.0)
    engine.pump()
    states = engine.status()["jobs"]
    assert states["early"] != "accepted"  # admitted inside the watermark
    assert states["late"] == "accepted"  # still beyond the watermark
    engine.drain()


def test_duplicate_submission_rejected_for_the_service_lifetime():
    engine = make_engine()
    engine.start()
    engine.submit(job_payload("job-0"))
    with pytest.raises(ProtocolError) as err:
        engine.submit(job_payload("job-0"))
    assert err.value.reason == REJECT_DUPLICATE
    rejects = [
        e for e in engine.tracer.events if e.etype == ev.JOB_REJECT
    ]
    assert len(rejects) == 1
    assert rejects[0].fields["reason"] == REJECT_DUPLICATE
    engine.drain()


def test_full_admission_queue_backpressures():
    engine = make_engine(queue_limit=2)
    engine.start()
    engine.submit(job_payload("job-0"))
    engine.submit(job_payload("job-1"))
    with pytest.raises(ProtocolError) as err:
        engine.submit(job_payload("job-2"))
    assert err.value.reason == REJECT_QUEUE_FULL
    assert engine.admission.rejected_total == 1
    # perfbench/serve_launcher.py reads the count through this alias.
    assert engine.stack.admission is engine.admission
    assert engine.stack.admission.rejected_total == 1
    engine.drain()
    assert engine.jobs_finished == 2


def _services_after_a_bounce(engine):
    """``status()["services"]`` as JSON, after one ``queue_full`` bounce
    on a two-deep queue and again after the drain."""
    engine.start()
    engine.submit(job_payload("job-0"))
    engine.submit(job_payload("job-1"))
    with pytest.raises(ProtocolError) as err:
        engine.submit(job_payload("job-2"))
    assert err.value.reason == REJECT_QUEUE_FULL
    bounced = json.dumps(engine.status()["services"])
    engine.drain()
    return bounced, json.dumps(engine.status()["services"])


def _admission(depth, draining):
    return {
        "limit": 2,
        "depth": depth,
        "accepted_total": 2,
        "rejected_total": 1,
        "draining": draining,
    }


def test_status_services_block_is_pinned_for_fifo_silod():
    """The ``services`` block's keys, order and values, byte for byte."""
    def services(depth, draining):
        return json.dumps({
            "admission": _admission(depth, draining),
            "estimator": {"kind": "SiloDPerfEstimator"},
            "placement": {
                "policy": "fifo",
                "storage_aware": True,
                "heterogeneity_aware": False,
                "default_generation": "V100",
                "gpu_pools": None,
            },
            "cache_alloc": {"cache": "silod", "kind": "SiloDDataManager"},
        })

    bounced, drained = _services_after_a_bounce(make_engine(queue_limit=2))
    assert bounced == services(depth=2, draining=False)
    assert drained == services(depth=0, draining=True)


def test_status_services_block_is_pinned_for_het_max_min():
    def services(depth, draining):
        return json.dumps({
            "admission": _admission(depth, draining),
            "estimator": {"kind": "HetSiloDPerfEstimator"},
            "placement": {
                "policy": "het-max-min",
                "storage_aware": True,
                "heterogeneity_aware": True,
                "default_generation": "V100",
                "gpu_pools": {"V100": 4, "A100": 4},
            },
            "cache_alloc": {"cache": "silod", "kind": "SiloDDataManager"},
        })

    fleet = Cluster.build_mixed(
        [("V100", 1), ("A100", 1)],
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=units.gbps(1.6),
    )
    bounced, drained = _services_after_a_bounce(
        make_engine(policy="het-max-min", queue_limit=2, cluster=fleet)
    )
    assert bounced == services(depth=2, draining=False)
    assert drained == services(depth=0, draining=True)


def test_invalid_job_payload_is_rejected_not_crashed():
    engine = make_engine()
    engine.start()
    for bad in (
        {"v": 1, "model": "resnet50"},  # no job_id
        {"v": 1, "job_id": ""},  # empty job_id
        {"v": 1, "job_id": "j", "model": "resnet50"},  # no dataset/work
    ):
        with pytest.raises(ProtocolError) as err:
            engine.submit(bad)
        assert err.value.reason == REJECT_INVALID
    # ``json.loads`` accepts NaN and Infinity; a job holding either
    # would never drain.
    for field in (
        "ideal_throughput_mbps",
        "total_work_mb",
        "submit_time_s",
        "deadline_s",
    ):
        for value in (float("nan"), float("inf")):
            bad = {**job_payload(f"{field}-{value}"), field: value}
            with pytest.raises(ProtocolError) as err:
                engine.submit(bad)
            assert err.value.reason == REJECT_INVALID
    for value in (float("nan"), float("inf")):
        bad = job_payload(f"size-{value}", dataset=f"ds-{value}")
        bad["dataset"]["size_mb"] = value
        with pytest.raises(ProtocolError) as err:
            engine.submit(bad)
        assert err.value.reason == REJECT_INVALID
    assert engine.jobs_submitted == 0
    engine.drain()


@pytest.mark.parametrize("simulator", ["fluid", "minibatch"])
def test_a_job_larger_than_the_fleet_is_invalid(simulator):
    engine = make_engine(simulator=simulator)
    engine.start()
    with pytest.raises(ProtocolError) as err:
        engine.submit(job_payload("huge", num_gpus=1000))
    assert err.value.reason == REJECT_INVALID
    assert engine.jobs_submitted == 0
    # The id stays free, and the whole fleet (8 GPUs) fits.
    engine.submit(job_payload("huge", num_gpus=8))
    result = engine.drain()
    assert [r.job_id for r in result.finished_records()] == ["huge"]


def test_a_dataset_redefined_under_its_name_is_invalid():
    engine = make_engine()
    engine.start()
    engine.submit(job_payload("first", dataset="ds-a", size_mb=512.0))
    resized = job_payload("resized", dataset="ds-a", size_mb=1024.0)
    recounted = job_payload("recounted", dataset="ds-a", size_mb=512.0)
    recounted["dataset"]["num_items"] = 2000
    for bad in (resized, recounted):
        with pytest.raises(ProtocolError) as err:
            engine.submit(bad)
        assert err.value.reason == REJECT_INVALID
        assert "already defined" in str(err.value)
    assert engine.jobs_submitted == 1
    # The same definition again is the same dataset.
    engine.submit(job_payload("second", dataset="ds-a", size_mb=512.0))
    result = engine.drain()
    assert sorted(r.job_id for r in result.finished_records()) == [
        "first", "second",
    ]


def test_cancel_frees_the_job_and_unknown_ids_reject():
    engine = make_engine()
    engine.start()
    engine.submit(job_payload("victim"))
    engine.submit(job_payload("survivor"))
    engine.clock_op("step", to_s=1.0)
    engine.pump()
    response = engine.cancel("victim", reason="client_request")
    assert response["ok"] is True
    with pytest.raises(ProtocolError) as err:
        engine.cancel("no-such-job")
    assert err.value.reason == REJECT_INVALID
    engine.drain()
    assert engine.status()["jobs"]["victim"] == "cancelled"
    assert engine.status()["jobs"]["survivor"] == "finished"
    cancels = [
        e for e in engine.tracer.events if e.etype == ev.JOB_CANCEL
    ]
    assert [e.job_id for e in cancels] == ["victim"]
    assert cancels[0].fields["reason"] == "client_request"


def test_graceful_drain_refuses_new_work_and_finishes_backlog():
    engine = make_engine()
    engine.start()
    engine.submit(job_payload("job-0"))
    result = engine.drain()
    assert len(result.finished_records()) == 1
    assert engine.stopped
    with pytest.raises(ProtocolError) as err:
        engine.submit(job_payload("job-1"))
    assert err.value.reason == REJECT_SHUTTING_DOWN
    # Idempotent: a second drain returns the same result.
    assert engine.drain() is result


def test_service_lifecycle_events_bracket_the_run():
    engine = make_engine()
    engine.start()
    engine.submit(job_payload("job-0"))
    engine.clock_op("pause")
    engine.drain()
    service = [
        e
        for e in engine.tracer.events
        if e.etype in ev.SERVICE_TYPES
    ]
    assert service[0].etype == ev.SERVICE_START
    assert service[-1].etype == ev.SERVICE_STOP
    assert service[-1].fields == {
        "reason": "drained",
        "jobs_submitted": 1,
        "jobs_finished": 1,
    }
    assert engine.tracer.events[0].etype == ev.SERVICE_START
    assert engine.tracer.events[-1].etype == ev.SERVICE_STOP


def test_metrics_report_latency_percentiles_and_queue_depth():
    engine = make_engine()
    engine.start()
    for i in range(4):
        engine.submit(job_payload(f"job-{i}"))
        # All four start in one round, so spacing the submits makes the
        # latencies arrive in descending order.
        time.sleep(0.002)
    engine.drain()
    serve = engine.metrics()["serve"]
    assert serve["decisions_total"] >= 1
    assert serve["admit_to_place_ms"]["count"] == 4
    assert serve["admit_to_place_ms"]["p50"] >= 0.0
    assert (
        serve["admit_to_place_ms"]["p99"]
        >= serve["admit_to_place_ms"]["p50"]
    )
    # Kept ascending as samples arrive: the percentiles are index reads.
    latencies = engine._latency_ms
    assert latencies == sorted(latencies)
    assert serve["admit_to_place_ms"]["p50"] == latencies[1]
    assert serve["admit_to_place_ms"]["p99"] == latencies[3]
    assert serve["queue_depth"] == 0


def test_minibatch_backend_drives_the_same_engine():
    engine = make_engine(simulator="minibatch")
    engine.start()
    engine.submit(job_payload("job-0"))
    engine.submit(job_payload("job-1"))
    engine.drain()
    assert engine.jobs_finished == 2
