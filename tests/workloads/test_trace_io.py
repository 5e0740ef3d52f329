"""Trace serialization and statistics."""

import json

import pytest

from repro.workloads.trace import TraceConfig, generate_trace
from repro.workloads.trace_io import (
    job_from_dict,
    job_to_dict,
    load_trace,
    save_trace,
    trace_summary,
)


def test_roundtrip_preserves_everything(tmp_path):
    jobs = generate_trace(TraceConfig(num_jobs=40, seed=5))
    path = tmp_path / "trace.jsonl"
    save_trace(jobs, path)
    loaded = load_trace(path)
    assert len(loaded) == len(jobs)
    for original, restored in zip(jobs, loaded):
        assert restored.job_id == original.job_id
        assert restored.model == original.model
        assert restored.dataset.name == original.dataset.name
        assert restored.dataset.size_mb == original.dataset.size_mb
        assert restored.num_gpus == original.num_gpus
        assert restored.total_work_mb == original.total_work_mb
        assert restored.submit_time_s == original.submit_time_s
        assert restored.regular == original.regular


def test_shared_datasets_share_instances(tmp_path):
    jobs = generate_trace(
        TraceConfig(num_jobs=30, seed=5, shared_dataset_fraction=1.0)
    )
    path = tmp_path / "trace.jsonl"
    save_trace(jobs, path)
    loaded = load_trace(path)
    by_name = {}
    for job in loaded:
        by_name.setdefault(job.dataset.name, job.dataset)
        # Same name -> identical object (cache-sharing semantics).
        assert job.dataset is by_name[job.dataset.name]


def test_rejects_bad_versions_and_bad_json(tmp_path):
    data = job_to_dict(generate_trace(TraceConfig(num_jobs=1, seed=1))[0])
    data["v"] = 99
    with pytest.raises(ValueError):
        job_from_dict(data, {})
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(ValueError):
        load_trace(path)


def test_blank_lines_are_skipped(tmp_path):
    jobs = generate_trace(TraceConfig(num_jobs=3, seed=2))
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(job_to_dict(j)) for j in jobs]
    path.write_text("\n".join([lines[0], "", lines[1], lines[2], ""]))
    assert len(load_trace(path)) == 3


def test_trace_summary():
    jobs = generate_trace(
        TraceConfig(num_jobs=100, seed=9, shared_dataset_fraction=0.5)
    )
    summary = trace_summary(jobs)
    assert summary["num_jobs"] == 100
    assert 0 < summary["num_datasets"] < 100
    assert summary["sharing_fraction"] > 0
    assert summary["median_ideal_duration_min"] > 0
    assert abs(sum(summary["gpu_mix"].values()) - 1.0) < 1e-9
    assert trace_summary([]) == {"num_jobs": 0}


def test_deadline_round_trips_only_when_declared(tmp_path):
    import dataclasses

    jobs = list(generate_trace(TraceConfig(num_jobs=3, seed=5)))
    jobs[0] = dataclasses.replace(jobs[0], deadline_s=1800.0)
    # Jobs without a deadline serialize without the key at all, so
    # SLO-free traces are byte-identical to pre-deadline ones.
    assert "deadline_s" in job_to_dict(jobs[0])
    assert "deadline_s" not in job_to_dict(jobs[1])
    path = tmp_path / "trace.jsonl"
    save_trace(jobs, path)
    restored = load_trace(path)
    assert restored[0].deadline_s == 1800.0
    assert restored[1].deadline_s is None
    explicit_null = job_from_dict(
        {**job_to_dict(jobs[0]), "deadline_s": None}, {}
    )
    assert explicit_null.deadline_s is None


@pytest.mark.parametrize("field, scale", [("size_mb", 2.0), ("num_items", 3)])
def test_a_dataset_name_binds_one_definition(tmp_path, field, scale):
    first = job_to_dict(generate_trace(TraceConfig(num_jobs=1, seed=3))[0])
    second = json.loads(json.dumps(first))
    second["job_id"] = "again"
    second["dataset"][field] = first["dataset"][field] * scale
    datasets = {}
    job_from_dict(first, datasets)
    with pytest.raises(ValueError, match="already defined"):
        job_from_dict(second, datasets)
    path = tmp_path / "conflict.jsonl"
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    with pytest.raises(ValueError, match="already defined"):
        load_trace(path)


def test_a_refused_job_defines_no_dataset():
    data = job_to_dict(generate_trace(TraceConfig(num_jobs=1, seed=3))[0])
    datasets = {}
    with pytest.raises(ValueError):
        job_from_dict({**data, "num_gpus": 0}, datasets)
    assert datasets == {}
    resized = json.loads(json.dumps(data))
    resized["dataset"]["size_mb"] *= 2.0
    assert job_from_dict(resized, datasets).dataset.size_mb == (
        resized["dataset"]["size_mb"]
    )
