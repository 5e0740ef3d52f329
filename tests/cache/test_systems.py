"""Cache-system decision logic (Alluxio, CoorDL, Quiver, SiloD, NoCache)."""

import pytest

from repro.cache.alluxio import AlluxioCache
from repro.cache.base import StorageContext
from repro.cache.coordl import CoorDLCache
from repro.cache.nocache import NoCache
from repro.cache.quiver import PROFILE_INTERVAL_S, QuiverCache
from repro.cache.silod_cache import SiloDDataManager
from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator
from repro.core.resources import Allocation

TB = 1024.0 * 1024.0
GB = 1024.0


def job(job_id, f_star=114.0, d_mb=1.3 * TB, gpus=1, dataset_name=None):
    return Job(
        job_id=job_id,
        model="m",
        dataset=Dataset(dataset_name or f"d-{job_id}", d_mb),
        num_gpus=gpus,
        ideal_throughput_mbps=f_star,
        total_work_mb=2 * d_mb,
    )


def context(
    jobs,
    total_cache_mb=2 * TB,
    total_io=200.0,
    effective=None,
    first_epoch_done=True,
    allocation=None,
    total_gpus=8,
    clock_s=0.0,
):
    effective = effective or {}
    grants = {j.job_id: float(j.num_gpus) for j in jobs}
    estimator = SiloDPerfEstimator()
    return StorageContext(
        running_jobs=jobs,
        gpu_grants=grants,
        total_gpus=total_gpus,
        total_cache_mb=total_cache_mb,
        total_io_mbps=total_io,
        effective_mb=effective,
        first_epoch_done=lambda j: first_epoch_done,
        estimator=estimator,
        f_stars=estimator.compute_bound_batch(
            jobs, [grants[j.job_id] for j in jobs]
        ),
        clock_s=clock_s,
        scheduler_allocation=allocation,
    )


class TestCoorDL:
    def test_static_per_gpu_targets(self):
        jobs = [job("img"), job("bert", f_star=8.0, d_mb=20.9 * TB, gpus=4)]
        ctx = context(jobs)
        decision = CoorDLCache().decide(ctx)
        # 2 TB / 8 GPUs = 256 GB per GPU.
        assert decision.cache_targets["img"] == pytest.approx(256 * GB)
        # BERT's 4 GPUs hold 1 TB — half the cluster cache, the paper's
        # "wastes half of the total cache capacity on BERT".
        assert decision.cache_targets["bert"] == pytest.approx(1 * TB)

    def test_targets_capped_at_dataset(self):
        jobs = [job("small", d_mb=10 * GB)]
        decision = CoorDLCache().decide(context(jobs))
        assert decision.cache_targets["small"] == pytest.approx(10 * GB)

    def test_share_is_pool_over_cluster_gpus(self):
        jobs = [job("a")]
        decision = CoorDLCache().decide(
            context(jobs, total_cache_mb=2 * TB, total_gpus=16)
        )
        # 2 TB / 16 GPUs = 128 GB for the one-GPU job.
        assert decision.cache_targets["a"] == pytest.approx(128 * GB)

    def test_hits_follow_effective_bytes(self):
        jobs = [job("a", d_mb=1000.0)]
        decision = CoorDLCache().decide(
            context(jobs, effective={"a": 250.0})
        )
        assert decision.hit_ratios["a"] == pytest.approx(0.25)

    def test_per_job_keys(self):
        assert CoorDLCache().per_job_keys
        assert CoorDLCache().cache_key(job("x")) == "x"


class TestAlluxio:
    def test_first_epoch_has_no_hits(self):
        jobs = [job("a"), job("b")]
        decision = AlluxioCache().decide(context(jobs, first_epoch_done=False))
        assert decision.hit_ratios == {"a": 0.0, "b": 0.0}

    def test_thrashing_hit_ratios_below_uniform(self):
        jobs = [job("a")]
        pool = 0.5 * TB  # scarcer than the 1.3 TB dataset
        decision = AlluxioCache().decide(
            context(
                jobs,
                total_cache_mb=pool,
                effective={"a": 1.3 * TB},  # fully churned-in pool
            )
        )
        gamma = pool / (1.3 * TB)
        assert 0 < decision.hit_ratios["a"] < gamma

    def test_fast_jobs_get_bigger_stack_share(self):
        jobs = [job("fast", f_star=200.0), job("slow", f_star=20.0)]
        decision = AlluxioCache().decide(context(jobs, total_io=1000.0))
        assert (
            decision.cache_targets["d-fast"]
            > decision.cache_targets["d-slow"]
        )

    def test_io_grants_within_capacity(self):
        jobs = [job(f"j{i}") for i in range(6)]
        decision = AlluxioCache().decide(context(jobs, total_io=200.0))
        assert sum(decision.io_grants.values()) <= 200.0 + 1e-6

    def test_empty(self):
        decision = AlluxioCache().decide(context([]))
        assert decision.cache_targets == {}


class TestQuiver:
    def test_whole_dataset_only(self):
        # 2 TB cache, two 1.3 TB datasets: one cached, remainder wasted.
        jobs = [job("rn0"), job("rn1")]
        cache = QuiverCache(profile_noise=0.0)
        decision = cache.decide(context(jobs))
        cached = [k for k, v in decision.cache_targets.items() if v > 0]
        assert len(cached) == 1
        uncached = [k for k, v in decision.cache_targets.items() if v == 0]
        assert len(uncached) == 1  # explicitly evicted, not partial

    def test_ranks_by_benefit_to_cost(self):
        jobs = [
            job("rn", f_star=114.0, d_mb=143 * GB),
            job("bert", f_star=2.0, d_mb=20.9 * TB),
        ]
        cache = QuiverCache(profile_noise=0.0)
        decision = cache.decide(context(jobs))
        assert decision.cache_targets["d-rn"] == pytest.approx(143 * GB)
        assert decision.cache_targets["d-bert"] == 0.0

    def test_noise_can_flip_selection_over_time(self):
        jobs = [job("rn0"), job("rn1")]
        cache = QuiverCache(profile_noise=0.6, seed=3)
        selections = set()
        # One profile per step: each step advances the clock by a full
        # profiling interval.
        for step in range(40):
            decision = cache.decide(
                context(jobs, clock_s=step * PROFILE_INTERVAL_S)
            )
            chosen = tuple(
                sorted(
                    k for k, v in decision.cache_targets.items() if v > 0
                )
            )
            selections.add(chosen)
        assert len(selections) > 1  # the ranking flipped at least once

    def test_hysteresis_stabilises_ties(self):
        jobs = [job("rn0"), job("rn1")]
        cache = QuiverCache(profile_noise=0.05, seed=3)
        first = cache.decide(context(jobs, clock_s=0.0))
        initial = {k for k, v in first.cache_targets.items() if v > 0}
        for step in range(1, 30):
            decision = cache.decide(
                context(jobs, clock_s=step * PROFILE_INTERVAL_S)
            )
            chosen = {
                k for k, v in decision.cache_targets.items() if v > 0
            }
            assert chosen == initial

    #: ``float.hex`` of ``_noisy_benefit`` after each of the two profile
    #: rounds of :meth:`test_noise_stream_is_pinned_and_reset_replays_it`.
    NOISE_STREAM = [
        {
            "d-rn0": "0x1.6262c903c8406p-14",
            "d-rn1": "0x1.cdef4026dc968p-13",
            "d-bert": "0x1.1aff0464344e8p-23",
        },
        {
            "d-rn0": "0x1.2cfa4f6838986p-14",
            "d-rn1": "0x1.18ee44b75bcb2p-13",
            "d-bert": "0x1.4e9ab9c7e471cp-24",
        },
    ]

    def test_noise_stream_is_pinned_and_reset_replays_it(self):
        """The seeded profiling noise draws the same floats, bit for
        bit, and ``reset()`` restarts the stream from the seed."""
        jobs = [
            job("rn0"),
            job("rn1", f_star=90.0, d_mb=600 * GB),
            job("bert", f_star=2.0, d_mb=20.9 * TB),
        ]
        cache = QuiverCache(profile_noise=0.3, seed=11)

        def profile_rounds():
            rounds = []
            for clock_s in (0.0, PROFILE_INTERVAL_S):
                cache.decide(context(jobs, clock_s=clock_s))
                rounds.append(
                    {k: v.hex() for k, v in cache._noisy_benefit.items()}
                )
            return rounds

        assert profile_rounds() == self.NOISE_STREAM
        cache.reset()
        assert profile_rounds() == self.NOISE_STREAM

    def test_reset_clears_profiling(self):
        cache = QuiverCache()
        cache.decide(context([job("a")]))
        cache.reset()
        assert cache._selected == set()

    def test_validation(self):
        with pytest.raises(ValueError):
            QuiverCache(profile_noise=-1)


class TestSiloDDataManager:
    def test_requires_scheduler_allocation(self):
        with pytest.raises(ValueError):
            SiloDDataManager().decide(context([job("a")]))

    def test_enforces_cache_and_guaranteed_io(self):
        jobs = [job("a", d_mb=1000.0), job("b", d_mb=1000.0)]
        allocation = Allocation()
        allocation.grant_cache("d-a", 1000.0)
        allocation.grant_remote_io("a", 0.0)
        allocation.grant_remote_io("b", 114.0)
        ctx = context(
            jobs,
            effective={"a": 1000.0, "b": 0.0},
            allocation=allocation,
        )
        decision = SiloDDataManager().decide(ctx)
        assert decision.cache_targets == {"d-a": 1000.0}
        assert decision.hit_ratios["a"] == 1.0
        assert decision.io_grants["a"] == pytest.approx(0.0)
        assert decision.io_grants["b"] == pytest.approx(114.0)

    def test_enforcement_is_strict_throttling(self):
        # Grants cap fetches even when the job's instantaneous demand is
        # higher; the *policies* refresh grants from instantaneous
        # demands, not the enforcement layer.
        jobs = [job("a", d_mb=1000.0)]
        allocation = Allocation()
        allocation.grant_remote_io("a", 30.0)
        ctx = context(jobs, effective={"a": 0.0}, allocation=allocation)
        decision = SiloDDataManager().decide(ctx)
        assert decision.io_grants["a"] == pytest.approx(30.0)
        # And a grant above demand is capped at the demand.
        allocation.grant_remote_io("a", 500.0)
        decision = SiloDDataManager().decide(ctx)
        assert decision.io_grants["a"] == pytest.approx(114.0)

    def test_io_allocation_disabled_falls_back_to_fair_share(self):
        jobs = [job("a"), job("b")]
        allocation = Allocation()
        allocation.grant_remote_io("a", 200.0)
        allocation.grant_remote_io("b", 0.0)
        ctx = context(jobs, allocation=allocation)
        decision = SiloDDataManager(io_allocation=False).decide(ctx)
        # Fair share ignores the skewed grants.
        assert decision.io_grants["a"] == pytest.approx(
            decision.io_grants["b"]
        )


class TestNoCache:
    def test_everything_remote(self):
        jobs = [job("a"), job("b")]
        decision = NoCache().decide(context(jobs))
        assert decision.cache_targets == {}
        assert decision.hit_ratios == {"a": 0.0, "b": 0.0}
        assert sum(decision.io_grants.values()) <= 200.0 + 1e-6
