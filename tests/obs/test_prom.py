"""Prometheus text exposition of metrics snapshots."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.prom import (
    PROMETHEUS_CONTENT_TYPE,
    render_metrics_response,
    render_snapshot,
)

pytestmark = pytest.mark.obs


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("sched_rounds", 3)
    registry.observe("queue_depth", 2.0)
    registry.observe("queue_depth", 4.0)
    registry.observe("jct_s", 120.0, job_id="job-1")
    registry.inc("cache_mb", 512.0, job_id="job-1")
    return registry


def test_content_type_is_exposition_v004():
    assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain; version=0.0.4")


def test_render_snapshot_types_labels_and_values():
    text = render_snapshot(_populated_registry().snapshot())
    assert "# TYPE repro_sched_rounds counter" in text
    assert "repro_sched_rounds 3" in text
    assert "# TYPE repro_window_queue_depth summary" in text
    assert 'repro_window_queue_depth{quantile="0.5"} 2' in text
    assert 'repro_window_queue_depth{quantile="0.99"} 4' in text
    assert "repro_window_queue_depth_count 2" in text
    # Job-scoped metrics carry the job label.
    assert 'repro_cache_mb{job="job-1"} 512' in text
    assert 'repro_window_jct_s{job="job-1",quantile="0.5"} 120' in text
    assert text.endswith("\n")


def test_type_header_precedes_first_sample_only_once():
    registry = MetricsRegistry()
    registry.inc("sched_rounds", 1)
    registry.inc("sched_rounds", 1, job_id="job-1")
    text = render_snapshot(registry.snapshot())
    assert text.count("# TYPE repro_sched_rounds counter") == 1
    lines = text.splitlines()
    first = lines.index("# TYPE repro_sched_rounds counter")
    assert lines[first + 1].startswith("repro_sched_rounds")


def test_equal_registries_render_byte_identical():
    assert render_snapshot(
        _populated_registry().snapshot()
    ) == render_snapshot(_populated_registry().snapshot())


def test_metric_names_are_sanitised():
    registry = MetricsRegistry()
    registry.inc("weird.name-1", 2)
    text = render_snapshot(registry.snapshot())
    assert "repro_weird_name_1 2" in text


def test_render_metrics_response_includes_serve_block():
    response = {
        "metrics": _populated_registry().snapshot(),
        "serve": {
            "decisions_total": 7,
            "decision_latency_p99_ms": 1.25,
            "queue_depth": 2,
            "rejected_total": 1,
            "admit_to_place_ms": {"p50": 3.0, "p99": 9.0, "count": 4},
        },
    }
    text = render_metrics_response(response)
    assert "# TYPE repro_serve_decisions_total counter" in text
    assert "repro_serve_decisions_total 7" in text
    assert "# TYPE repro_serve_decision_latency_p99_ms gauge" in text
    assert "repro_serve_decision_latency_p99_ms 1.25" in text
    assert "# TYPE repro_serve_admit_to_place_ms summary" in text
    assert 'repro_serve_admit_to_place_ms{quantile="0.99"} 9' in text
    assert "repro_serve_admit_to_place_ms_count 4" in text
    # The registry part renders exactly as render_snapshot would.
    assert render_snapshot(response["metrics"]).rstrip("\n") in text


def test_render_empty_snapshot():
    assert render_snapshot(MetricsRegistry().snapshot()) == "\n"
