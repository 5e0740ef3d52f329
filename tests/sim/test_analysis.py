"""Analysis helpers: tables and fidelity."""

import pytest

from repro.analysis.fidelity import compare_simulators
from repro.analysis.tables import (
    format_value,
    improvement_summary,
    render_series,
    render_table,
)
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job

GB = 1024.0


def test_format_value():
    assert format_value(None) == "-"
    assert format_value(float("nan")) == "nan"
    assert format_value(1234.5) == "1,234"
    assert format_value(3.14159) == "3.14"
    assert format_value(0.000123) == "0.000123"
    assert format_value("x") == "x"


def test_render_table_alignment():
    out = render_table(
        [{"a": 1.0, "b": "xx"}, {"a": 20.0, "b": "y"}], title="T"
    )
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert len(lines) == 5
    assert render_table([]) == "(no rows)"


def test_render_series_bars_scale():
    out = render_series(
        [{"x": 1, "y": 10.0}, {"x": 2, "y": 20.0}], "x", "y", width=10
    )
    lines = out.splitlines()
    assert lines[1].count("#") == 10
    assert lines[0].count("#") == 5


def test_improvement_summary_orders_lower_is_better():
    rows = improvement_summary({"silod": 100.0, "alluxio": 250.0})
    assert rows[0]["system"] == "silod"
    assert rows[1]["vs_best"] == pytest.approx(2.5)


def make_job():
    return Job(
        job_id="j",
        model="test",
        dataset=Dataset("d", 40.0 * GB, num_items=int(40 * GB / 256)),
        num_gpus=1,
        ideal_throughput_mbps=100.0,
        total_work_mb=4 * 40.0 * GB,
    )


def test_compare_simulators_produces_small_errors():
    cluster = Cluster.build(1, 2, 50.0 * GB, 60.0)
    jobs = [make_job()]
    report = compare_simulators(
        cluster, "fifo", "silod", jobs, item_size_mb=256.0
    )
    assert report.jct_error < 0.05
    assert report.makespan_error < 0.05
    row = report.as_row()
    assert row["cache"] == "silod"
    assert row["jct_error_%"] < 5.0
