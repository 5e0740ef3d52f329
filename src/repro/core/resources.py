"""Resource vectors and allocations.

SiloD's framework (Algorithm 1) abstracts scheduling as "allocate
``totalResource`` to jobs using a performance estimator". Beyond the
compute resources existing schedulers manage, SiloD adds **cache** and
**remote IO** as first-class resource types.

:class:`ResourceVector` is the cluster-total / per-job allocation triple.
:class:`Allocation` maps jobs (and datasets, for cache) to their grants and
is what policies return and the data manager enforces.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping

#: Canonical resource-type names (the ``t`` index of Eq 6).
GPU = "gpu"
CACHE = "cache"
REMOTE_IO = "remote_io"
RESOURCE_TYPES = (GPU, CACHE, REMOTE_IO)


@dataclasses.dataclass(frozen=True)
class ResourceVector:
    """An amount of each resource type.

    ``gpus`` counts GPUs (may be fractional under time-sharing policies),
    ``cache_mb`` is cache space in MB, ``remote_io_mbps`` is remote IO
    bandwidth in MB/s.
    """

    gpus: float = 0.0
    cache_mb: float = 0.0
    remote_io_mbps: float = 0.0

    def __post_init__(self) -> None:
        for field in ("gpus", "cache_mb", "remote_io_mbps"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be non-negative")

    def as_dict(self) -> Dict[str, float]:
        """The vector as a ``{resource_type: amount}`` mapping."""
        return {
            GPU: self.gpus,
            CACHE: self.cache_mb,
            REMOTE_IO: self.remote_io_mbps,
        }

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            gpus=self.gpus + other.gpus,
            cache_mb=self.cache_mb + other.cache_mb,
            remote_io_mbps=self.remote_io_mbps + other.remote_io_mbps,
        )

    def weighted_sum(self, weights: Mapping[str, float]) -> float:
        """``sum_t w_t * R_t`` — the resource cost term of Eq 6."""
        amounts = self.as_dict()
        return sum(weights.get(t, 0.0) * amounts[t] for t in RESOURCE_TYPES)


def tetris_weights(total: ResourceVector) -> Dict[str, float]:
    """Eq 6/7 weights: ``w_t = 1 / totalResource[t]`` (from Tetris).

    A resource type the cluster has none of gets weight 0 so it never
    contributes to a score.
    """
    amounts = total.as_dict()
    return {
        t: (1.0 / amounts[t]) if amounts[t] > 0 else 0.0 for t in RESOURCE_TYPES
    }


class Allocation:
    """A joint compute + storage allocation for a set of jobs.

    * ``gpus[job_id]`` — GPUs granted (fractional allowed).
    * ``remote_io[job_id]`` — remote IO bandwidth in MB/s (exclusive per
      job, §6: jobs read items in different orders even on a shared
      dataset).
    * ``cache[dataset_name]`` — cache in MB, granted at dataset level so
      sharing jobs are charged once (§6).
    """

    def __init__(self) -> None:
        self.gpus: Dict[str, float] = {}
        self.remote_io: Dict[str, float] = {}
        self.cache: Dict[str, float] = {}

    def grant_gpus(self, job_id: str, gpus: float) -> None:
        """Grant GPUs to a job."""
        if gpus < 0:
            raise ValueError("GPU grant must be non-negative")
        self.gpus[job_id] = gpus

    def grant_remote_io(self, job_id: str, mbps: float) -> None:
        """Grant remote IO bandwidth to a job (Table 3: allocateRemoteIO)."""
        if mbps < 0:
            raise ValueError("remote IO grant must be non-negative")
        self.remote_io[job_id] = mbps

    def grant_cache(self, dataset_name: str, cache_mb: float) -> None:
        """Grant cache to a dataset (Table 3: allocateCacheSize)."""
        if cache_mb < 0:
            raise ValueError("cache grant must be non-negative")
        self.cache[dataset_name] = cache_mb

    def gpus_of(self, job_id: str) -> float:
        """GPUs granted to a job (0 if not scheduled)."""
        return self.gpus.get(job_id, 0.0)

    def remote_io_of(self, job_id: str) -> float:
        """Remote IO granted to a job in MB/s (0 if none)."""
        return self.remote_io.get(job_id, 0.0)

    def cache_of(self, dataset_name: str) -> float:
        """Cache granted to a dataset in MB (0 if none)."""
        return self.cache.get(dataset_name, 0.0)

    def total(self) -> ResourceVector:
        """Aggregate grants (cache counted once per dataset)."""
        return ResourceVector(
            gpus=sum(self.gpus.values()),
            cache_mb=sum(self.cache.values()),
            remote_io_mbps=sum(self.remote_io.values()),
        )

    def __repr__(self) -> str:
        return (
            f"Allocation(gpus={self.gpus}, remote_io={self.remote_io}, "
            f"cache={self.cache})"
        )
