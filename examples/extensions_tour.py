#!/usr/bin/env python
"""A tour of the framework extensions beyond the paper's headline setup.

1. The objective family (§5.2): max-min fairness, utilisation, Themis
   finish-time fairness, and Tiresias LAS on one contended cluster.
2. Hoard-style prefetching (§8): warming queued datasets with idle egress.
3. Fault injection (§6): a data-manager crash is harmless; losing a
   server costs its cache shards.

Run: ``python examples/extensions_tour.py``
"""

from repro import units
from repro.analysis.tables import render_table
from repro.cluster.hardware import Cluster
from repro.faults import FaultEvent
from repro.sim.fluid import FluidSimulator
from repro.sim.runner import make_system, run_experiment
from repro.workloads.datasets import synthetic_images
from repro.workloads.models import make_job
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)


def contended_cluster() -> Cluster:
    return Cluster.build(8, 4, 4 * units.gb(368.0), units.gbps(2.56))


def contended_trace():
    cfg = TraceConfig(num_jobs=80, seed=7, duration_median_s=14400.0,
                      duration_sigma=1.2)
    cfg.mean_interarrival_s = arrival_rate_for_load(cfg, 32, load=1.5)
    return generate_trace(cfg)


def demo_objectives() -> None:
    print("=== Objective family on SiloDPerf ===")
    jobs = contended_trace()
    rows = []
    for policy in ("gavel", "max-throughput", "finish-time-fairness",
                   "las", "sjf"):
        result = run_experiment(
            contended_cluster(), policy, "silod", jobs,
            reschedule_interval_s=1200.0,
        )
        rows.append(
            {
                "policy": policy,
                "avg JCT (min)": result.average_jct_minutes(),
                "makespan (min)": result.makespan_minutes(),
                "fairness": result.average_fairness_ratio(),
            }
        )
    print(render_table(rows))
    print()


def demo_prefetch() -> None:
    print("=== Prefetching queued datasets with idle egress ===")
    cluster = Cluster.build(4, 4, 4 * units.gb(368.0), units.gbps(1.6))
    jobs = [
        make_job(f"vlad-{i}", "vlad",
                 synthetic_images(f"video-{i}", size_mb=units.tb(0.3)),
                 num_gpus=1, duration_at_ideal_s=4 * 3600.0)
        for i in range(16)
    ] + [
        make_job(f"resnet-{i}", "resnet50",
                 synthetic_images(f"images-{i}", size_mb=units.tb(0.3)),
                 num_gpus=1, num_epochs=4, submit_time_s=60.0)
        for i in range(4)
    ]
    rows = []
    for cache in ("silod", "silod-prefetch"):
        result = run_experiment(
            cluster, "fifo", cache, jobs, reschedule_interval_s=600.0
        )
        waits = [
            r.jct_s / 60.0
            for r in result.finished_records()
            if r.job_id.startswith("resnet")
        ]
        rows.append(
            {
                "system": cache,
                "queued wave avg JCT (min)": sum(waits) / len(waits),
            }
        )
    print(render_table(rows))
    print()


def demo_faults() -> None:
    print("=== Fault injection (§6) ===")
    cluster = Cluster.build(2, 1, 60.0 * units.gb(1.0), 50.0)
    jobs = [
        make_job(f"j{i}", "efficientnet-b1",
                 synthetic_images(f"f-{i}", size_mb=units.tb(0.04)), num_epochs=4)
        for i in range(2)
    ]
    # A lost server takes its disk's share of every cached dataset with
    # it; its slot of the pool is back in service at once (cold).
    share_mb = cluster.total_cache_mb / len(cluster.servers)
    rows = []
    for label, faults in (
        ("no faults", []),
        ("data-manager crash @2000s",
         [FaultEvent(2000.0, "data_manager_restart")]),
        ("server lost @2000s",
         [FaultEvent(2000.0, "cache_loss", magnitude=share_mb),
          FaultEvent(2000.0, "cache_recover", magnitude=share_mb)]),
    ):
        scheduler, cache_system = make_system("fifo", "silod")
        result = FluidSimulator(
            cluster, scheduler, cache_system, list(jobs), faults=faults
        ).run()
        rows.append(
            {"scenario": label,
             "avg JCT (min)": result.average_jct_minutes()}
        )
    print(render_table(rows))
    print(
        "\nA crash only loses in-memory state (recovered from pod"
        "\nannotations + on-disk cache); a lost server evicts its shards."
    )


if __name__ == "__main__":
    demo_objectives()
    demo_prefetch()
    demo_faults()
