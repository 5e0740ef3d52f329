"""Extension: JCT inflation under cluster churn (``repro.faults``).

SiloD's co-design claim under churn: because the scheduler owns cache
allocation, it re-divides the surviving cache the moment capacity
changes, so its JCT *inflation* (faulted / fault-free, same system) stays
below the static/decoupled baselines. One deterministic fault schedule —
a cache-node loss, a server crash/recover cycle, and a bandwidth flap —
is driven through all four cache systems on the same trace.
"""

from repro import units
from repro.analysis.artifacts import (
    load_benchmark_artifact,
    write_benchmark_artifact,
)
from repro.analysis.tables import render_table
from repro.cluster.hardware import Cluster
from repro.faults import FaultEvent, FaultSchedule
from repro.sim.runner import run_experiment
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)

from benchmarks.conftest import RESULTS_DIR

GPUS = 32
CACHES = ("silod", "alluxio", "coordl", "quiver")
BASELINES = ("alluxio", "coordl", "quiver")

#: One churn story over the ~40-hour run: a storage node dies (1 TB of
#: cache pool gone for good), later a GPU server crash/recover cycle,
#: then a 4-hour uplink flap at 30% bandwidth.
SCHEDULE = FaultSchedule(
    [
        FaultEvent(20_000.0, "cache_loss", magnitude=units.gb(1000.0)),
        FaultEvent(40_000.0, "server_crash", magnitude=1),
        FaultEvent(55_000.0, "server_recover", magnitude=1),
        FaultEvent(70_000.0, "bandwidth", magnitude=0.3),
        FaultEvent(90_000.0, "bandwidth", magnitude=1.0),
    ]
)


def _cluster() -> Cluster:
    return Cluster.build(
        num_servers=8,
        gpus_per_server=4,
        cache_per_server_mb=4 * units.gb(92.0),
        remote_io_mbps=units.gbps(2.56),
    )


def _trace():
    cfg = TraceConfig(
        num_jobs=80, seed=42, duration_median_s=7200.0, duration_sigma=1.2
    )
    cfg.mean_interarrival_s = arrival_rate_for_load(cfg, GPUS, load=1.5)
    return generate_trace(cfg)


def run_grid():
    cells = {}
    for cache in CACHES:
        clean = run_experiment(
            _cluster(), "fifo", cache, _trace(),
            reschedule_interval_s=600.0,
        )
        faulted = run_experiment(
            _cluster(), "fifo", cache, _trace(),
            reschedule_interval_s=600.0, faults=SCHEDULE,
        )
        cells[cache] = (clean, faulted)
    return cells


def test_ext_faults_inflation(benchmark, report):
    cells = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    rows = []
    inflation = {}
    for cache, (clean, faulted) in cells.items():
        assert len(faulted.finished_records()) == len(faulted.records)
        inflation[cache] = (
            faulted.average_jct_minutes() / clean.average_jct_minutes()
        )
        rows.append(
            {
                "cache": cache,
                "clean JCT (min)": clean.average_jct_minutes(),
                "faulted JCT (min)": faulted.average_jct_minutes(),
                "inflation": inflation[cache],
            }
        )
    report(
        "ext_faults",
        render_table(
            rows, title="Extension: JCT inflation under cluster churn"
        ),
    )
    artifact = write_benchmark_artifact(
        "ext_faults",
        "cells",
        {
            "schedule": SCHEDULE.to_dicts(),
            "cells": [{k: v for k, v in row.items()} for row in rows],
        },
        RESULTS_DIR,
    )
    assert load_benchmark_artifact(artifact)["data"]["cells"] == rows
    # Everything degrades under churn…
    for cache in CACHES:
        assert inflation[cache] > 1.0
    # …but the co-design absorbs it best: lowest inflation *and* lowest
    # absolute faulted JCT.
    for baseline in BASELINES:
        assert inflation["silod"] < inflation[baseline]
        assert (
            cells["silod"][1].average_jct_minutes()
            < cells[baseline][1].average_jct_minutes()
        )
