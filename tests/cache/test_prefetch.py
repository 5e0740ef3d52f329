"""Hoard-style prefetching extension."""

import pytest

from repro.cache.prefetch import MAX_PREFETCH_FRACTION, PrefetchingDataManager
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.core.resources import Allocation
from repro.sim.fluid import FluidSimulator
from repro.sim.runner import make_system
from tests.cache.test_systems import context, job

GB = 1024.0


def queued_job(job_id, f_star=114.0, d_mb=100.0 * GB):
    return Job(
        job_id=job_id,
        model="m",
        dataset=Dataset(f"d-{job_id}", d_mb),
        num_gpus=1,
        ideal_throughput_mbps=f_star,
        total_work_mb=3 * d_mb,
    )


class TestPrefetchingDataManager:
    def test_without_queue_behaves_like_silod(self):
        jobs = [job("a", d_mb=1000.0)]
        allocation = Allocation()
        allocation.grant_remote_io("a", 50.0)
        ctx = context(jobs, allocation=allocation)
        decision = PrefetchingDataManager().decide(ctx)
        assert decision.prefetch_rates == {}

    def test_spare_bandwidth_prefetches_queued_datasets(self):
        running = [job("a", d_mb=1000.0)]
        waiting = [queued_job("q1"), queued_job("q2", f_star=10.0)]
        allocation = Allocation()
        allocation.grant_remote_io("a", 50.0)  # 150 MB/s spare of 200
        ctx = context(
            running, effective={"a": 0.0}, allocation=allocation
        )
        ctx.queued_jobs = waiting
        decision = PrefetchingDataManager().decide(ctx)
        assert decision.prefetch_rates
        # Queued datasets received cache targets within the pool.
        assert decision.cache_targets.get("d-q1", 0.0) > 0
        total_targets = sum(decision.cache_targets.values())
        assert total_targets <= ctx.total_cache_mb + 1e-6
        # Prefetch stays within the spare egress.
        spare = ctx.total_io_mbps - sum(decision.io_grants.values())
        assert sum(decision.prefetch_rates.values()) <= spare + 1e-6

    def test_prefetch_fraction_cap(self):
        # decide() short-circuits with no running jobs; craft one runner
        # that is fully cached and holds no egress.
        allocation = Allocation()
        allocation.grant_remote_io("a", 0.0)
        ctx = context(
            [job("a", d_mb=1000.0)],
            effective={"a": 1000.0},
            allocation=allocation,
        )
        ctx.queued_jobs = [queued_job("q1")]
        decision = PrefetchingDataManager().decide(ctx)
        # All 200 MB/s of egress is idle; prefetch takes only the cap.
        assert sum(decision.prefetch_rates.values()) == pytest.approx(
            MAX_PREFETCH_FRACTION * 200.0
        )
        assert MAX_PREFETCH_FRACTION == 0.8


def test_prefetch_shortens_queued_jobs_cold_start():
    """End-to-end: with GPUs busy and egress idle, prefetching warms the
    queued job's dataset so it runs (near) compute-bound when scheduled."""
    # Egress (60 MB/s) below f* (100 MB/s): a cold first epoch is
    # IO-bound, which is exactly what prefetching removes.
    cluster = Cluster.build(1, 1, 200.0 * GB, 60.0)
    blocker = Job(
        job_id="blocker",
        model="m",
        dataset=Dataset("d-blocker", 50.0 * GB),
        num_gpus=1,
        ideal_throughput_mbps=100.0,
        total_work_mb=4 * 50.0 * GB,
    )
    follower = Job(
        job_id="follower",
        model="m",
        dataset=Dataset("d-follower", 50.0 * GB),
        num_gpus=1,
        ideal_throughput_mbps=100.0,
        total_work_mb=2 * 50.0 * GB,
        submit_time_s=1.0,
    )

    def run(cache):
        scheduler, cache_system = make_system("fifo", cache)
        return FluidSimulator(
            cluster,
            scheduler,
            cache_system,
            [blocker, follower],
            reschedule_interval_s=300.0,
        ).run()

    plain = run("silod")
    prefetched = run("silod-prefetch")
    jct = lambda result: {
        r.job_id: r.jct_s for r in result.finished_records()
    }
    # The blocker is unaffected; the follower starts warm and finishes
    # meaningfully earlier.
    assert jct(prefetched)["blocker"] == pytest.approx(
        jct(plain)["blocker"], rel=0.02
    )
    assert jct(prefetched)["follower"] < 0.92 * jct(plain)["follower"]
