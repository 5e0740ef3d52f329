"""Alluxio baseline: a shared distributed cache with LRU eviction.

Alluxio is the general-purpose distributed cache the paper uses as the
"most commonly-used off-the-shelf" baseline (§7): one cluster-wide pool,
LRU replacement, no awareness of jobs, datasets, or the scheduler.

Fluid model: each job's slice of the LRU stack is proportional to its
access byte rate (fast jobs touch more items and so occupy more of the
stack), and its hit ratio follows the thrashing closed form of
``repro.cache.lru``. Rates and hit ratios depend on each other through the
IO fair share, so the decision iterates a small fixed point (it converges
in a handful of rounds because every map is monotone and bounded).
"""

from __future__ import annotations

from typing import Dict

from repro.cache.base import (
    CacheSystem,
    StorageContext,
    StorageDecision,
    trace_io_grants,
)
from repro.cache.lru import lru_epoch_hit_ratio, shared_lru_shares
from repro.core.policies import io_share

#: Fixed-point iterations for the rate <-> hit-ratio <-> IO loop.
_FIXED_POINT_ROUNDS = 10


class AlluxioCache(CacheSystem):
    """Shared LRU pool with fair-share remote IO."""

    name = "alluxio"

    def decide(self, ctx: StorageContext) -> StorageDecision:
        jobs = list(ctx.running_jobs)
        if not jobs:
            return StorageDecision({}, {}, {})
        ideal = {
            job.job_id: rate for job, rate in zip(jobs, ctx.f_stars)
        }
        rates = dict(ideal)
        hit_ratios: Dict[str, float] = {j.job_id: 0.0 for j in jobs}
        grants: Dict[str, float] = {}
        for _ in range(_FIXED_POINT_ROUNDS):
            shares = shared_lru_shares(rates, ctx.total_cache_mb)
            for job in jobs:
                if not ctx.first_epoch_done(job):
                    hit_ratios[job.job_id] = 0.0
                else:
                    # The closed form assumes the job's stack share is
                    # already populated with its items; after pool churn
                    # (jobs leaving/arriving) hits are further bounded by
                    # what is actually resident and effective for it.
                    steady = lru_epoch_hit_ratio(
                        shares[job.job_id], job.dataset.size_mb
                    )
                    resident_bound = min(
                        1.0,
                        ctx.effective_mb.get(job.job_id, 0.0)
                        / job.dataset.size_mb,
                    )
                    hit_ratios[job.job_id] = min(steady, resident_bound)
            demands = {
                job.job_id: ideal[job.job_id]
                * (1.0 - hit_ratios[job.job_id])
                for job in jobs
            }
            grants = io_share.max_min_waterfill(demands, ctx.total_io_mbps)
            new_rates = {}
            for job in jobs:
                miss = 1.0 - hit_ratios[job.job_id]
                if miss <= 1e-12:
                    achieved = ideal[job.job_id]
                else:
                    achieved = min(
                        ideal[job.job_id], grants[job.job_id] / miss
                    )
                new_rates[job.job_id] = achieved
            if all(
                abs(new_rates[j.job_id] - rates[j.job_id]) <= 1e-6
                for j in jobs
            ):
                rates = new_rates
                break
            rates = new_rates

        # The LRU pool's occupancy per dataset mirrors the jobs' stack
        # shares (sharing jobs pool their shares on one dataset).
        shares = shared_lru_shares(rates, ctx.total_cache_mb)
        targets: Dict[str, float] = {}
        for job in jobs:
            key = self.cache_key(job)
            targets[key] = min(
                job.dataset.size_mb,
                targets.get(key, 0.0) + shares[job.job_id],
            )
        trace_io_grants(ctx, hit_ratios, grants)
        return StorageDecision(
            cache_targets=targets, hit_ratios=hit_ratios, io_grants=grants
        )
