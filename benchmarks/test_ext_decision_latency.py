"""Extension: scheduler decision latency across policies and scales.

Every scheduling round emits a ``sched_decision`` event carrying the
wall-clock ``latency_ms`` of the joint GPU+cache decision. This sweep
measures it for three policies across three cluster sizes and persists a
JSON artifact (``benchmarks/results/ext_decision_latency.json``) so the
scaling behaviour can be tracked across revisions.
"""

from repro import units
from repro.analysis.artifacts import (
    load_benchmark_artifact,
    write_benchmark_artifact,
)
from repro.analysis.tables import render_table
from repro.cluster.hardware import Cluster
from repro.obs import Tracer
from repro.sim.runner import run_experiment
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)

from benchmarks.conftest import RESULTS_DIR

POLICIES = ("fifo", "sjf", "gavel")
GPU_COUNTS = (16, 32, 64)


def _cluster(gpus: int) -> Cluster:
    return Cluster.build(
        num_servers=gpus // 4,
        gpus_per_server=4,
        cache_per_server_mb=4 * units.gb(92.0),
        remote_io_mbps=units.gbps(0.08 * gpus),
    )


def _trace(gpus: int):
    cfg = TraceConfig(
        num_jobs=2 * gpus,
        seed=42,
        duration_median_s=7200.0,
        duration_sigma=1.2,
    )
    cfg.mean_interarrival_s = arrival_rate_for_load(cfg, gpus, load=1.5)
    return generate_trace(cfg)


def _percentile(values, q):
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def run_sweep():
    cells = []
    for policy in POLICIES:
        for gpus in GPU_COUNTS:
            tracer = Tracer()
            run_experiment(
                _cluster(gpus),
                policy,
                "silod",
                _trace(gpus),
                reschedule_interval_s=600.0,
                tracer=tracer,
            )
            latencies = [
                e.fields["latency_ms"]
                for e in tracer.events
                if e.etype == "sched_decision"
            ]
            cells.append(
                {
                    "policy": policy,
                    "gpus": gpus,
                    "rounds": len(latencies),
                    "mean_latency_ms": sum(latencies) / len(latencies),
                    "p95_latency_ms": _percentile(latencies, 0.95),
                }
            )
    return cells


def test_ext_decision_latency(benchmark, report):
    cells = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report(
        "ext_decision_latency",
        render_table(
            cells,
            title="Extension: scheduler decision latency (ms) sweep",
        ),
    )
    artifact = write_benchmark_artifact(
        "ext_decision_latency", "cells", {"cells": cells}, RESULTS_DIR
    )
    assert load_benchmark_artifact(artifact)["data"]["cells"] == cells
    for cell in cells:
        # Each sweep cell made real decisions, quickly: the paper's
        # scheduler runs rounds at minute cadence, so even a generous
        # bound guards against an accidental complexity blow-up.
        assert cell["rounds"] > 0
        assert 0.0 < cell["mean_latency_ms"] < 1_000.0
        assert cell["p95_latency_ms"] >= cell["mean_latency_ms"] * 0.5
