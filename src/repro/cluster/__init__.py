"""Cluster substrate: hardware, storage, datasets, jobs."""

from repro.cluster.dataset import Dataset, DatasetRegistry
from repro.cluster.hardware import (
    Cluster,
    GpuSpec,
    Server,
    cluster_96gpu,
    cluster_400gpu,
    microbenchmark_cluster,
)
from repro.cluster.job import Job
from repro.cluster.storage import peer_read_throughput

__all__ = [
    "Dataset",
    "DatasetRegistry",
    "Cluster",
    "GpuSpec",
    "Server",
    "Job",
    "peer_read_throughput",
    "microbenchmark_cluster",
    "cluster_96gpu",
    "cluster_400gpu",
]
