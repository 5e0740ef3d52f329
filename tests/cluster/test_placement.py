"""Server-level placement and the one-pool validity check."""

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.cluster.placement import (
    CacheShardPlacer,
    GpuPlacer,
    PlacementError,
    validate_placement,
)

GB = 1024.0


def cluster(servers=4, gpus=4, cache_gb=100.0):
    return Cluster.build(servers, gpus, cache_gb * GB, 500.0)


def job(job_id, gpus=1, d_gb=50.0):
    return Job(
        job_id=job_id,
        model="m",
        dataset=Dataset(f"d-{job_id}", d_gb * GB),
        num_gpus=gpus,
        ideal_throughput_mbps=100.0,
        total_work_mb=2 * d_gb * GB,
    )


class TestGpuPlacer:
    def test_whole_job_fits_on_one_server(self):
        placer = GpuPlacer(cluster())
        placement = placer.place(job("a", gpus=4))
        assert placement.num_servers == 1
        assert placement.total_gpus == 4

    def test_best_fit_prefers_fuller_server(self):
        placer = GpuPlacer(cluster(servers=2, gpus=4))
        placer.place(job("first", gpus=2))  # leaves server with 2 free
        placement = placer.place(job("second", gpus=2))
        # Packs into the partially used server, not the empty one.
        assert placement.num_servers == 1
        assert placer.free_gpus == 4
        empty = [s for s, f in placer._free.items() if f == 4]
        assert len(empty) == 1

    def test_spill_across_servers(self):
        placer = GpuPlacer(cluster(servers=2, gpus=4))
        placement = placer.place(job("big", gpus=6))
        assert placement.num_servers == 2
        assert placement.total_gpus == 6

    def test_rejects_oversized_and_duplicates(self):
        placer = GpuPlacer(cluster(servers=1, gpus=4))
        placer.place(job("a", gpus=4))
        with pytest.raises(PlacementError):
            placer.place(job("b", gpus=1))
        with pytest.raises(PlacementError):
            placer.place(job("a", gpus=1))

    def test_release_returns_gpus(self):
        placer = GpuPlacer(cluster(servers=1, gpus=4))
        placer.place(job("a", gpus=4))
        placer.release("a")
        placer.release("a")  # idempotent
        assert placer.free_gpus == 4
        placer.place(job("b", gpus=4))


class TestCacheShardPlacer:
    def test_even_striping(self):
        placer = CacheShardPlacer(cluster(servers=4, cache_gb=100.0))
        shards = placer.place("ds", 200.0 * GB)
        assert len(shards) == 4
        for shard in shards:
            assert shard.size_mb == pytest.approx(50.0 * GB)

    def test_respects_capacity(self):
        placer = CacheShardPlacer(cluster(servers=2, cache_gb=10.0))
        with pytest.raises(PlacementError):
            placer.place("ds", 30.0 * GB)
        placer.place("ok", 20.0 * GB)
        assert placer.free_cache_mb == pytest.approx(0.0)

    def test_evict_frees_space(self):
        placer = CacheShardPlacer(cluster(servers=2, cache_gb=10.0))
        placer.place("ds", 20.0 * GB)
        placer.evict("ds")
        placer.evict("ds")  # idempotent
        assert placer.free_cache_mb == pytest.approx(20.0 * GB)
        assert placer.shards_of("ds") == []

    def test_duplicate_placement_rejected(self):
        placer = CacheShardPlacer(cluster())
        placer.place("ds", GB)
        with pytest.raises(PlacementError):
            placer.place("ds", GB)


class TestValidatePlacement:
    def _setup(self, rate, fabric_mbps=12500.0, disk_mbps=2000.0):
        cl = cluster(servers=4, gpus=4, cache_gb=200.0)
        for server in cl.servers:
            server.fabric_bandwidth_mbps = fabric_mbps
            server.local_disk_bandwidth_mbps = disk_mbps
        jobs = [job(f"j{i}") for i in range(4)]
        gpu_placer = GpuPlacer(cl)
        shard_placer = CacheShardPlacer(cl)
        for j in jobs:
            gpu_placer.place(j)
            shard_placer.place(j.dataset.name, j.dataset.size_mb)
        rates = {j.job_id: rate for j in jobs}
        return cl, jobs, gpu_placer, shard_placer, rates

    def test_datacenter_fabric_is_feasible(self):
        report = validate_placement(*self._setup(rate=1923.0))
        assert report.feasible
        # Even striping: every disk serves the same aggregate load.
        loads = list(report.disk_load_mbps.values())
        assert max(loads) - min(loads) < 1e-6

    def test_slow_fabric_is_flagged(self):
        report = validate_placement(
            *self._setup(rate=1923.0, fabric_mbps=125.0)
        )
        assert not report.feasible
        assert "NIC" in report.bottleneck

    def test_slow_disks_are_flagged(self):
        report = validate_placement(
            *self._setup(rate=1923.0, disk_mbps=100.0)
        )
        assert not report.feasible
        assert "disk" in report.bottleneck

    def test_idle_jobs_add_no_load(self):
        cl, jobs, gp, sp, _rates = self._setup(rate=0.0)
        report = validate_placement(cl, jobs, gp, sp, {})
        assert report.feasible
        assert sum(report.disk_load_mbps.values()) == 0.0


class TestGenerationAwarePlacement:
    def mixed(self):
        return Cluster.build_mixed(
            [("V100", 1), ("A100", 1)],
            gpus_per_server=4,
            cache_per_server_mb=100.0 * GB,
            remote_io_mbps=500.0,
        )

    def test_place_filters_by_generation(self):
        placer = GpuPlacer(self.mixed())
        placement = placer.place(job("a", gpus=2), generation="A100")
        a100_server = next(
            s.server_id
            for s in self.mixed().servers
            if s.gpu.name == "A100"
        )
        assert placement.gpus_by_server == {a100_server: 2}
        assert placer.free_gpus == 6

    def test_pool_exhaustion_names_the_pool(self):
        placer = GpuPlacer(self.mixed())
        placer.place(job("a", gpus=4), generation="V100")
        with pytest.raises(PlacementError, match="V100"):
            placer.place(job("b", gpus=1), generation="V100")
        # The other pool is unaffected.
        placer.place(job("b", gpus=1), generation="A100")

    def test_generation_none_uses_the_whole_fleet(self):
        placer = GpuPlacer(self.mixed())
        placement = placer.place(job("wide", gpus=8))
        assert placement.total_gpus == 8
        assert placer.free_gpus == 0
