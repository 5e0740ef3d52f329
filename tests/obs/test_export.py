"""Exporters: JSONL round trip, CSV, Chrome trace_event validity."""

import csv
import json

import pytest

from repro.obs import (
    Tracer,
    chrome_trace,
    load_events,
    save_chrome_trace,
    save_events,
    save_events_csv,
)
from repro.obs import events as ev
from tests.sim import test_fluid_anchors as fluid_anchors

pytestmark = pytest.mark.obs


@pytest.fixture
def tracer():
    t = Tracer()
    t.emit(
        0.0, ev.JOB_SUBMIT, "j1", model="resnet50", dataset="d",
        num_gpus=1, dataset_mb=10.0, total_work_mb=20.0, deadline_s=None,
    )
    t.emit(
        0.0, ev.SCHED_DECISION, policy="fifo", storage_aware=True,
        num_jobs=1, num_running=1, gpus_granted=1, cache_granted_mb=5.0,
        io_granted_mbps=2.0, latency_ms=0.1,
    )
    t.emit(0.0, ev.JOB_START, "j1", gpus=1, queue_delay_s=0.0)
    t.emit(
        1.0, ev.CACHE_ADMIT, key="d", delta_mb=5.0, resident_mb=5.0,
        via="miss",
    )
    t.emit(10.0, ev.EPOCH_BOUNDARY, "j1", epoch=1)
    t.emit(20.0, ev.JOB_FINISH, "j1", jct_s=20.0, epochs_done=2)
    return t


def test_jsonl_round_trip(tracer, tmp_path):
    path = tmp_path / "events.jsonl"
    save_events(tracer.events, path)
    loaded = load_events(path)
    assert loaded == tracer.events


def test_jsonl_header_is_versioned(tracer, tmp_path):
    path = tmp_path / "events.jsonl"
    save_events(tracer.events, path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"v": 1, "kind": "repro-events"}


def test_jsonl_bytes_are_the_header_then_one_line_per_event(tmp_path):
    tracer = Tracer()
    sim = fluid_anchors.build_cell("shared", tracer=tracer)
    fluid_anchors.run_sim(sim, "shared")
    path = tmp_path / "events.jsonl"
    save_events(tracer.events, path)
    header = json.dumps({"v": 1, "kind": "repro-events"}) + "\n"
    lines = [json.dumps(event.to_dict()) for event in tracer.events]
    assert path.read_bytes() == (
        header + "\n".join(lines) + "\n"
    ).encode("utf-8")


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.jsonl"
    path.write_text('{"kind": "something-else"}\n')
    with pytest.raises(ValueError):
        load_events(path)


def test_csv_export(tracer, tmp_path):
    path = tmp_path / "events.csv"
    save_events_csv(tracer.events, path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(tracer.events)
    assert rows[0]["etype"] == "job_submit"
    fields = json.loads(rows[0]["fields_json"])
    assert fields["model"] == "resnet50"


def test_chrome_trace_is_valid_trace_event_json(tracer, tmp_path):
    path = tmp_path / "trace.json"
    save_chrome_trace(tracer.events, path)
    doc = json.loads(path.read_text())
    assert isinstance(doc["traceEvents"], list)
    phases = {"b", "e", "i", "C", "M"}
    for entry in doc["traceEvents"]:
        assert entry["ph"] in phases
        assert isinstance(entry["name"], str)
        assert isinstance(entry["pid"], int)
        if entry["ph"] != "M":
            assert isinstance(entry["ts"], (int, float))
            assert entry["ts"] >= 0


def test_chrome_trace_spans_jobs(tracer):
    doc = chrome_trace(tracer.events)
    spans = [e for e in doc["traceEvents"] if e["ph"] in ("b", "e")]
    begins = [e for e in spans if e["ph"] == "b"]
    ends = [e for e in spans if e["ph"] == "e"]
    assert len(begins) == len(ends) == 1
    assert begins[0]["id"] == ends[0]["id"]
    # Microsecond timestamps of simulated seconds.
    assert ends[0]["ts"] == pytest.approx(20.0 * 1e6)


def test_chrome_trace_has_counter_tracks(tracer):
    doc = chrome_trace(tracer.events)
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters, "sched_decision should drive counter tracks"
    assert all("args" in e for e in counters)
