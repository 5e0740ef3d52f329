"""Sliding-window histograms: bounds, percentiles, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, SlidingWindow, WINDOW_NAMES
from repro.obs.windows import DEFAULT_CAPACITY, nearest_rank

pytestmark = pytest.mark.obs

REPO = Path(__file__).resolve().parents[2]


def test_nearest_rank_convention():
    assert nearest_rank([], 0.99) == 0.0
    samples = sorted(float(i) for i in range(1, 101))
    assert nearest_rank(samples, 0.50) == 50.0
    assert nearest_rank(samples, 0.95) == 95.0
    assert nearest_rank(samples, 0.99) == 99.0
    assert nearest_rank([7.0], 0.99) == 7.0


def test_capacity_bounds_retention_but_not_observed_total():
    window = SlidingWindow(capacity=4)
    for i in range(10):
        window.observe(float(i))
    assert len(window) == 4
    assert window.observed_total == 10
    assert window.values() == [6.0, 7.0, 8.0, 9.0]
    assert window.last() == 9.0


def test_snapshot_shape_and_stability():
    window = SlidingWindow()
    for i in (5, 1, 3, 2, 4):
        window.observe(float(i))
    snap = window.snapshot()
    assert list(snap) == ["count", "observed_total", "p50", "p95", "p99"]
    assert snap == {
        "count": 5, "observed_total": 5, "p50": 3.0, "p95": 5.0,
        "p99": 5.0,
    }
    # Same observation sequence => byte-identical snapshot JSON.
    other = SlidingWindow()
    for i in (5, 1, 3, 2, 4):
        other.observe(float(i))
    assert json.dumps(snap) == json.dumps(other.snapshot())


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        SlidingWindow(capacity=0)


def test_nan_sample_rejected():
    window = SlidingWindow(capacity=3)
    window.observe(1.0)
    with pytest.raises(ValueError):
        window.observe(float("nan"))
    assert window.values() == [1.0]
    assert window.observed_total == 1
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.observe("queue_depth", float("nan"), job_id="j1")
    assert registry.window("queue_depth", job_id="j1") is None
    assert registry.snapshot()["jobs"] == {}


def test_sorted_values_survive_eviction_with_signed_zeros():
    window = SlidingWindow(capacity=2)
    for value in (0.0, -0.0, 0.0):
        window.observe(value)
    # Retained: the -0.0 then the second 0.0; evicting the first 0.0 must
    # not take the -0.0, so it still sorts first as sorted() would put it.
    assert repr(window.percentile(0.5)) == "-0.0"
    window.observe(1.0)
    assert repr(window.percentile(0.5)) == "0.0"
    assert window.snapshot()["p99"] == 1.0


def test_registry_windows_created_on_first_observe():
    registry = MetricsRegistry()
    assert registry.window("jct_s") is None
    registry.observe("jct_s", 120.0)
    registry.observe("jct_s", 60.0, job_id="j1")
    cluster_window = registry.window("jct_s")
    assert cluster_window is not None and len(cluster_window) == 1
    assert cluster_window.capacity == DEFAULT_CAPACITY
    job_window = registry.window("jct_s", job_id="j1")
    assert job_window is not None and job_window.values() == [60.0]


def test_well_known_window_catalogue():
    assert WINDOW_NAMES == (
        "decision_latency_ms",
        "queue_depth",
        "cache_hit_ratio",
        "jct_s",
    )


_DETERMINISM_SCRIPT = """
import json
from repro import units
from repro.cluster.hardware import Cluster
from repro.obs import Tracer
from repro.sim.runner import run_experiment
from repro.workloads.trace import TraceConfig, generate_trace

cluster = Cluster.build(2, 4, units.gb(25), units.gbps(1.6))
jobs = generate_trace(TraceConfig(num_jobs=6, seed=11,
                                  mean_interarrival_s=300.0,
                                  duration_median_s=900.0))
tracer = Tracer()
run_experiment(cluster, "fifo", "silod", jobs, tracer=tracer)
snap = tracer.metrics.snapshot()
# Decision latency is wall-clock by design: machinery deterministic,
# values not. Drop it before comparing runs.
snap.get("cluster", {}).get("windows", {}).pop("decision_latency_ms", None)
print(json.dumps(snap, sort_keys=True))
"""


def _snapshot_in_subprocess() -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_SCRIPT],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_window_percentiles_deterministic_across_reruns():
    """Acceptance: the same snapshot from two separate processes."""
    first = _snapshot_in_subprocess()
    again = _snapshot_in_subprocess()
    assert first == again
    snap = json.loads(first)
    windows = snap["cluster"]["windows"]
    assert set(windows) == {"queue_depth", "cache_hit_ratio", "jct_s"}
    assert windows["jct_s"]["count"] == 6
