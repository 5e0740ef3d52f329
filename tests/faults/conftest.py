"""Shared fixtures for the fault-injection suite.

A small deterministic scenario both simulators can run quickly: two
jobs on a 2-server cluster with enough GPUs for both, a warm cache by
mid-run, and a remote-IO limit tight enough that losing cached bytes
hurts. Also the schedules that express §6's two fault-tolerance
events.
"""

from __future__ import annotations

from repro import units
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.faults import FaultEvent
from repro.workloads.models import make_job


def small_cluster(servers: int = 2) -> Cluster:
    return Cluster.build(
        num_servers=servers,
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=units.gbps(1.6),
    )


def two_job_trace():
    ds_a = Dataset(name="d-a", size_mb=units.gb(20))
    ds_b = Dataset(name="d-b", size_mb=units.gb(30))
    return [
        make_job(
            "job-a", "resnet50", ds_a, num_gpus=2, num_epochs=3,
            submit_time_s=0.0,
        ),
        make_job(
            "job-b", "alexnet", ds_b, num_gpus=1, num_epochs=2,
            submit_time_s=120.0,
        ),
    ]


def data_manager_restarts(*times_s):
    """The data manager crashes and recovers at each time."""
    return [FaultEvent(t, "data_manager_restart") for t in times_s]


def server_losses(fleet: Cluster, *times_s):
    """One server is lost outright at each time.

    Its disk held ``1/len(fleet.servers)`` of the pool (even striping),
    so that share of every key's resident bytes disappears; the pool's
    capacity is unchanged once the server's slot is back in service.
    """
    share = fleet.total_cache_mb / len(fleet.servers)
    events = []
    for t in times_s:
        events.append(FaultEvent(t, "cache_loss", magnitude=share))
        events.append(FaultEvent(t, "cache_recover", magnitude=share))
    return events
