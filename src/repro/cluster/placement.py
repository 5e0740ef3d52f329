"""Server-level placement: GPUs for jobs, cache shards for datasets.

The fluid simulator treats the cluster's cache as one pool, justified by
Figure 3: the storage fabric serves peer reads at local-disk speed. This
module makes that assumption explicit and checkable:

* :class:`GpuPlacer` bin-packs jobs onto servers (distributed jobs may
  span servers, mirroring data-parallel training);
* :class:`CacheShardPlacer` spreads each dataset's cached bytes over the
  servers' local disks (the even striping Figure 3 measures);
* :func:`validate_placement` verifies that, under a given set of running
  jobs and cache shards, no server's disk or fabric NIC is oversubscribed
  — i.e. the "one pool" abstraction holds for this workload.

The placement layer is exercised by `tests/cluster/test_placement.py` and
the Figure 3 benchmark's dynamic variant; the simulators stay pool-based
(the validator shows when that is safe).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.cluster.hardware import Cluster, Server
from repro.cluster.job import Job


@dataclasses.dataclass
class JobPlacement:
    """GPUs assigned to one job, per server id."""

    job_id: str
    gpus_by_server: Dict[int, int]

    @property
    def total_gpus(self) -> int:
        """GPUs assigned across all servers."""
        return sum(self.gpus_by_server.values())

    @property
    def num_servers(self) -> int:
        """Servers the job spans."""
        return len(self.gpus_by_server)


class PlacementError(RuntimeError):
    """Raised when a job or shard set cannot be placed."""


class GpuPlacer:
    """Bin-packs jobs onto servers, preferring dense packings.

    Jobs are placed best-fit-decreasing: a job first tries to fit wholly
    on the emptiest server that can hold it (minimising fragmentation and
    cross-server traffic), then spills over server boundaries like
    data-parallel workers do.
    """

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        self._free: Dict[int, int] = {
            server.server_id: server.num_gpus for server in cluster.servers
        }
        #: server id -> GPU generation name, for generation-pinned
        #: placement on mixed fleets.
        self._generation: Dict[int, str] = {
            server.server_id: server.gpu.name for server in cluster.servers
        }
        self._placements: Dict[str, JobPlacement] = {}

    @property
    def free_gpus(self) -> int:
        """GPUs not assigned to any job."""
        return sum(self._free.values())

    def placement_of(self, job_id: str) -> Optional[JobPlacement]:
        """The placement of a job, if placed."""
        return self._placements.get(job_id)

    def place(
        self, job: Job, generation: Optional[str] = None
    ) -> JobPlacement:
        """Place a job; raises :class:`PlacementError` if it cannot fit.

        With ``generation`` set, only servers of that GPU generation are
        considered — the placement-level counterpart of the scheduler's
        per-pool allocation, so a job assigned to (say) the A100 pool
        never lands on V100 hardware.
        """
        if job.job_id in self._placements:
            raise PlacementError(f"job {job.job_id} is already placed")
        eligible = {
            server_id: free
            for server_id, free in self._free.items()
            if generation is None
            or self._generation[server_id] == generation
        }
        if job.num_gpus > sum(eligible.values()):
            pool = f" on {generation}" if generation is not None else ""
            raise PlacementError(
                f"job {job.job_id} needs {job.num_gpus} GPUs{pool}; "
                f"{sum(eligible.values())} free"
            )
        # Best fit: the server with the least free GPUs that still holds
        # the whole job.
        whole = [
            (free, server_id)
            for server_id, free in eligible.items()
            if free >= job.num_gpus
        ]
        assignment: Dict[int, int] = {}
        if whole:
            _free, server_id = min(whole)
            assignment[server_id] = job.num_gpus
        else:
            # Spill across servers, fullest-first to keep spans short.
            needed = job.num_gpus
            for server_id, free in sorted(
                eligible.items(), key=lambda kv: -kv[1]
            ):
                if needed <= 0:
                    break
                take = min(free, needed)
                if take > 0:
                    assignment[server_id] = take
                    needed -= take
        for server_id, taken in assignment.items():
            self._free[server_id] -= taken
        placement = JobPlacement(job_id=job.job_id, gpus_by_server=assignment)
        self._placements[job.job_id] = placement
        return placement

    def release(self, job_id: str) -> None:
        """Return a job's GPUs to the free pool (idempotent)."""
        placement = self._placements.pop(job_id, None)
        if placement is None:
            return
        for server_id, taken in placement.gpus_by_server.items():
            self._free[server_id] += taken


@dataclasses.dataclass
class CacheShard:
    """Bytes of one dataset resident on one server."""

    dataset: str
    server_id: int
    size_mb: float


class CacheShardPlacer:
    """Stripes cached datasets evenly across servers' local disks.

    Even striping is what Figure 3 evaluates: every server holds ``1/n``
    of each dataset, so every job reads ``1/n`` locally and the rest from
    peers, and the load on every disk is uniform.
    """

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        self._free: Dict[int, float] = {
            server.server_id: server.local_cache_mb
            for server in cluster.servers
        }
        self._shards: Dict[str, List[CacheShard]] = {}

    @property
    def free_cache_mb(self) -> float:
        """Unassigned cache capacity across all servers."""
        return sum(self._free.values())

    def shards_of(self, dataset: str) -> List[CacheShard]:
        """The shards of a dataset (empty if not placed)."""
        return list(self._shards.get(dataset, []))

    def place(self, dataset: str, size_mb: float) -> List[CacheShard]:
        """Stripe ``size_mb`` of a dataset across servers.

        Striping is proportional to each server's free capacity (even for
        a balanced cluster) and raises :class:`PlacementError` when the
        pool cannot hold it — the same condition under which the fluid
        simulator's pool would refuse.
        """
        if size_mb < 0:
            raise ValueError("shard size must be non-negative")
        if dataset in self._shards:
            raise PlacementError(f"dataset {dataset!r} is already placed")
        total_free = self.free_cache_mb
        if size_mb > total_free + 1e-6:
            raise PlacementError(
                f"dataset {dataset!r} needs {size_mb:.0f} MB; "
                f"{total_free:.0f} free"
            )
        shards = []
        if total_free > 0:
            for server_id, free in self._free.items():
                share = size_mb * free / total_free
                if share <= 0:
                    continue
                shards.append(
                    CacheShard(
                        dataset=dataset, server_id=server_id, size_mb=share
                    )
                )
                self._free[server_id] -= share
        self._shards[dataset] = shards
        return list(shards)

    def evict(self, dataset: str) -> None:
        """Drop a dataset's shards (idempotent)."""
        for shard in self._shards.pop(dataset, []):
            self._free[shard.server_id] += shard.size_mb


@dataclasses.dataclass
class PlacementReport:
    """Per-server load under a placement, and whether it is feasible."""

    disk_load_mbps: Dict[int, float]
    nic_load_mbps: Dict[int, float]
    feasible: bool
    bottleneck: Optional[str] = None


def validate_placement(
    cluster: Cluster,
    jobs: Sequence[Job],
    gpu_placer: GpuPlacer,
    shard_placer: CacheShardPlacer,
    loading_rate_mbps: Dict[str, float],
) -> PlacementReport:
    """Check disk and NIC budgets under cache-served loading rates.

    ``loading_rate_mbps`` gives each job's cache-served throughput (hits;
    remote fetches use the egress path, not the storage fabric). With
    even striping, a job's reads hit every server's disk in proportion to
    its shard share; bytes from non-local servers also cross both NICs.
    """
    servers: Dict[int, Server] = {
        server.server_id: server for server in cluster.servers
    }
    disk = {server_id: 0.0 for server_id in servers}
    nic = {server_id: 0.0 for server_id in servers}
    for job in jobs:
        rate = loading_rate_mbps.get(job.job_id, 0.0)
        if rate <= 0:
            continue
        placement = gpu_placer.placement_of(job.job_id)
        if placement is None:
            continue
        shards = shard_placer.shards_of(job.dataset.name)
        total_sharded = sum(s.size_mb for s in shards)
        if total_sharded <= 0:
            continue
        local_servers = set(placement.gpus_by_server)
        for shard in shards:
            fraction = shard.size_mb / total_sharded
            served = rate * fraction
            disk[shard.server_id] += served
            if shard.server_id not in local_servers:
                # Peer read: the serving NIC sends, a job NIC receives
                # (spread over the job's servers).
                nic[shard.server_id] += served
                for server_id in local_servers:
                    nic[server_id] += served / len(local_servers)
    feasible = True
    bottleneck = None
    for server_id, server in servers.items():
        if disk[server_id] > server.local_disk_bandwidth_mbps * (1 + 1e-9):
            feasible = False
            bottleneck = f"disk on server {server_id}"
            break
        if nic[server_id] > server.fabric_bandwidth_mbps * (1 + 1e-9):
            feasible = False
            bottleneck = f"fabric NIC on server {server_id}"
            break
    return PlacementReport(
        disk_load_mbps=disk,
        nic_load_mbps=nic,
        feasible=feasible,
        bottleneck=bottleneck,
    )
