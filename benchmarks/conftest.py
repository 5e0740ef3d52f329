"""Shared infrastructure for the benchmark suite.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper (see DESIGN.md's experiment index) and prints/saves the reproduced
rows. Heavy simulation cells are memoised per session so figures that
share a configuration (e.g. Figures 12 and 13) pay for it once.

Scale: by default the cluster-scale experiments run on a 100-GPU slice of
the paper's 400-GPU setup with identical per-GPU cache and egress ratios
and a sustained 1.5x-oversubscribed trace — the same contention regime at
a quarter of the compute. Set ``REPRO_FULL_SCALE=1`` for the 400-GPU /
1200-job configuration (minutes per cell).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro import units
from repro.analysis.artifacts import write_benchmark_artifact
from repro.cluster.hardware import Cluster, cluster_400gpu
from repro.sim.metrics import RunResult
from repro.sim.runner import run_experiment
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "0") == "1"
RESULTS_DIR = Path(__file__).parent / "results"


def scaled_cluster_400(
    remote_io_mbps: float = None, num_gpus: int = None
) -> Cluster:
    """The §7.2 cluster, full or scaled to a 100-GPU slice."""
    if FULL_SCALE:
        cluster = cluster_400gpu()
        if remote_io_mbps is not None:
            cluster.remote_io_mbps = remote_io_mbps
        return cluster
    gpus = num_gpus or 100
    cluster = Cluster.build(
        num_servers=gpus // 4,
        gpus_per_server=4,
        cache_per_server_mb=4 * units.gb(368.0),
        # 8 Gbps for 100 GPUs == the paper's 32 Gbps for 400 GPUs.
        remote_io_mbps=units.gbps(8.0 * gpus / 100.0),
    )
    if remote_io_mbps is not None:
        cluster.remote_io_mbps = remote_io_mbps
    return cluster


def cluster_trace(
    seed: int = 42,
    load: float = 1.5,
    shared_dataset_fraction: float = 0.0,
    gpu_scale: float = 1.0,
    num_gpus: int = None,
    duration_median_s: float = 21600.0,
):
    """The sustained synthetic trace used by the cluster-scale figures."""
    gpus = (400 if FULL_SCALE else (num_gpus or 100))
    cfg = TraceConfig(
        num_jobs=1200 if FULL_SCALE else 300,
        seed=seed,
        duration_median_s=duration_median_s,
        duration_sigma=1.2,
        shared_dataset_fraction=shared_dataset_fraction,
        gpu_scale=gpu_scale,
    )
    cfg.mean_interarrival_s = arrival_rate_for_load(cfg, gpus, load=load)
    return generate_trace(cfg)


def cluster_96() -> Cluster:
    """The paper's 96-GPU cluster (§7.1.2): 8 Gbps egress."""
    from repro.cluster.hardware import cluster_96gpu

    return cluster_96gpu()


def trace_96(seed: int = 42, load: float = 1.5):
    """Sustained trace sized for the 96-GPU cluster."""
    cfg = TraceConfig(
        num_jobs=300,
        seed=seed,
        duration_median_s=21600.0,
        duration_sigma=1.2,
    )
    cfg.mean_interarrival_s = arrival_rate_for_load(cfg, 96, load=load)
    return generate_trace(cfg)


# ----------------------------------------------------------------------
# Session-wide memoisation of simulation cells.
# ----------------------------------------------------------------------

_CELL_CACHE: Dict[Tuple, RunResult] = {}


def run_cell_96(policy: str, cache: str, **sim_kwargs) -> RunResult:
    """Run (and memoise) one 96-GPU simulation cell."""
    key = ("96", policy, cache, tuple(sorted(sim_kwargs.items())))
    if key not in _CELL_CACHE:
        _CELL_CACHE[key] = run_experiment(
            cluster_96(),
            policy,
            cache,
            trace_96(),
            reschedule_interval_s=1800.0,
            sample_interval_s=3600.0,
            **sim_kwargs,
        )
    return _CELL_CACHE[key]


def run_cell(
    policy: str,
    cache: str,
    cluster_key: str = "400",
    trace_kwargs: Tuple = (),
    cluster_kwargs: Tuple = (),
    **sim_kwargs,
) -> RunResult:
    """Run (and memoise) one simulation cell.

    ``trace_kwargs`` / ``cluster_kwargs`` are tuples of (key, value) pairs
    so the memo key is hashable.
    """
    cache_kwargs = sim_kwargs.pop("cache_kwargs", ())
    key = (policy, cache, cluster_key, trace_kwargs, cluster_kwargs,
           cache_kwargs, tuple(sorted(sim_kwargs.items())))
    if key not in _CELL_CACHE:
        cluster = scaled_cluster_400(**dict(cluster_kwargs))
        jobs = cluster_trace(**dict(trace_kwargs))
        sim_kwargs.setdefault("reschedule_interval_s", 1800.0)
        sim_kwargs.setdefault("sample_interval_s", 3600.0)
        _CELL_CACHE[key] = run_experiment(
            cluster,
            policy,
            cache,
            jobs,
            cache_kwargs=dict(cache_kwargs),
            **sim_kwargs,
        )
    return _CELL_CACHE[key]


@pytest.fixture()
def report():
    """Print a reproduced table/figure and persist it for EXPERIMENTS.md.

    Each table is written twice: the raw ``.txt`` that EXPERIMENTS.md
    embeds, and a schema-versioned ``.json`` envelope
    (``repro.analysis.artifacts``) so every artifact under ``results/`` is
    self-describing and machine-diffable across revisions.
    """

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        write_benchmark_artifact(name, "table", text, RESULTS_DIR)
        print(f"\n{text}\n")

    return _report
