"""MetricsRegistry snapshot contract: versioned, sorted, stable."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.registry import METRICS_SCHEMA_VERSION

pytestmark = pytest.mark.obs


def test_snapshot_carries_schema_version():
    snap = MetricsRegistry().snapshot()
    assert snap["schema_version"] == METRICS_SCHEMA_VERSION == 3


def test_snapshot_keys_are_sorted_regardless_of_insertion_order():
    registry = MetricsRegistry()
    # Deliberately insert in reverse-alphabetical order, jobs included.
    registry.inc("zeta", 1)
    registry.inc("alpha", 1)
    registry.observe("queue_depth", 3.0)
    registry.observe("cache_hit_ratio", 0.5)
    registry.inc("anything", 1, job_id="job-2")
    registry.inc("anything", 1, job_id="job-1")
    snap = registry.snapshot()
    assert list(snap) == ["schema_version", "cluster", "jobs"]
    cluster = snap["cluster"]
    assert list(cluster["counters"]) == ["alpha", "zeta"]
    assert list(cluster["windows"]) == ["cache_hit_ratio", "queue_depth"]
    assert list(snap["jobs"]) == ["job-1", "job-2"]


def test_windows_key_absent_until_first_observation():
    registry = MetricsRegistry()
    registry.inc("rounds", 1)
    assert "windows" not in registry.snapshot()["cluster"]
    registry.observe("queue_depth", 1.0)
    assert "windows" in registry.snapshot()["cluster"]


def test_snapshot_is_json_stable_across_equal_registries():
    def build():
        registry = MetricsRegistry()
        registry.inc("rounds", 2)
        registry.observe("jct_s", 10.0, job_id="j1")
        registry.inc("gpus_busy", 4.0)
        return registry

    assert json.dumps(build().snapshot()) == json.dumps(build().snapshot())


def test_clear_resets_everything():
    registry = MetricsRegistry()
    registry.inc("rounds", 2)
    registry.observe("jct_s", 10.0, job_id="j1")
    registry.clear()
    assert registry.snapshot() == {
        "schema_version": METRICS_SCHEMA_VERSION,
        "cluster": {"counters": {}},
        "jobs": {},
    }
    assert registry.job_ids() == []


def test_counter_and_window_accessors():
    registry = MetricsRegistry()
    assert registry.counter("missing") == 0
    assert registry.window("missing") is None
    registry.inc("rounds")
    registry.inc("rounds", 3, job_id="j1")
    registry.observe("depth", 7.0)
    assert registry.counter("rounds") == 1
    assert registry.counter("rounds", job_id="j1") == 3
    assert registry.window("depth").values() == [7.0]
    assert registry.job_ids() == ["j1"]


def test_jobs_sorted_by_id_when_a_scope_has_no_counter():
    registry = MetricsRegistry()
    registry.observe("depth", 1.0, job_id="a")
    registry.inc("rounds", job_id="b")
    registry.observe("jct_s", 5.0, job_id="0")
    assert list(registry.snapshot()["jobs"]) == ["0", "a", "b"]
    registry.inc("rounds", job_id="00")
    assert list(registry.snapshot()["jobs"]) == ["0", "00", "a", "b"]
    assert registry.job_ids() == ["0", "00", "a", "b"]


def test_snapshot_is_a_copy():
    registry = MetricsRegistry()
    registry.inc("rounds", 2)
    registry.inc("depth", 1.0, job_id="j1")
    snap = registry.snapshot()
    snap["cluster"]["counters"]["rounds"] = 99.0
    snap["jobs"]["j1"]["counters"].clear()
    assert registry.counter("rounds") == 2
    assert registry.snapshot()["jobs"]["j1"]["counters"] == {"depth": 1.0}
