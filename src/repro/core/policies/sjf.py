"""Multi-resource Shortest-Job-First (§5.1, Eq 6-7).

Tetris and Tiresias are unified by scoring each job with the weighted sum
of its resource demand multiplied by its estimated duration:

    score = min_R  (sum_t w_t * R_t) * numSteps * stepDataSize / perf(j, R)

with ``w_t = 1 / totalResource[t]``. Jobs with the least score run first.

In SiloD mode ``perf`` is SiloDPerf (Eq 7) and R spans GPUs, cache, and
remote IO. The inner minimisation has a closed form:

* lowering the loading throughput ``f`` below ``f*`` never helps — the IO
  cost term ``w_b * b * duration = w_b * (1 - c/d) * W`` is independent of
  ``f`` while every other term grows as ``f`` shrinks — so ``f = f*``;
* at ``f = f*`` the cost is **linear in the cache grant c**, so the optimum
  sits at an endpoint: ``c = 0`` or ``c = min(d, C)``.

Scoring therefore evaluates two candidate allocations per job.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies.base import OrderBasedPolicy, ScheduleContext
from repro.core.resources import ResourceVector, tetris_weights


def sjf_score(
    job: Job,
    total: ResourceVector,
    estimator: SiloDPerfEstimator,
    storage_aware: bool,
) -> float:
    """Eq 6 (vanilla) / Eq 7 (SiloD) score; lower runs first."""
    weights = tetris_weights(total)
    f_star = estimator.compute_bound(job, job.num_gpus)
    if f_star <= 0:
        return float("inf")
    if not storage_aware or not job.regular:
        # Vanilla multi-resource SJF: R is compute only, duration at f*.
        demand = ResourceVector(gpus=job.num_gpus)
        return demand.weighted_sum(weights) * job.total_work_mb / f_star

    candidates = candidate_allocations(job, total)
    best = float("inf")
    for resources in candidates:
        throughput = estimator.estimate_vector(job, resources)
        if throughput <= 0:
            continue
        duration = job.total_work_mb / throughput
        best = min(best, resources.weighted_sum(weights) * duration)
    return best


def candidate_allocations(
    job: Job, total: ResourceVector
) -> Tuple[ResourceVector, ...]:
    """The two endpoint allocations of Eq 7's inner minimisation.

    Both run the job at ``f*`` (full GPUs, just-enough remote IO); they
    differ in whether the dataset is cached as fully as the cluster allows.
    """
    d = job.dataset.size_mb
    f_star = job.ideal_throughput_mbps
    no_cache = ResourceVector(
        gpus=job.num_gpus,
        cache_mb=0.0,
        remote_io_mbps=min(f_star, total.remote_io_mbps),
    )
    cache_mb = min(d, total.cache_mb)
    full_cache = ResourceVector(
        gpus=job.num_gpus,
        cache_mb=cache_mb,
        remote_io_mbps=min(
            f_star * (1.0 - cache_mb / d), total.remote_io_mbps
        ),
    )
    return (no_cache, full_cache)


class SjfPolicy(OrderBasedPolicy):
    """Preemptive multi-resource SJF.

    On every scheduling round all active jobs are (re)scored and admitted
    in ascending score order — running jobs with worse scores than waiting
    ones are preempted, as in Tiresias. In SiloD mode, cache then goes to
    the most cache-efficient datasets among admitted jobs and remote IO is
    granted full-demand-first in score order (short jobs are never starved
    by long ones).
    """

    name = "sjf"
    pure_round = True

    def order(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> List[Job]:
        """Ascending Eq 6/7 score (ties by job id), each job scored once."""
        scores = ctx.job_scores
        for job in jobs:
            scores[job.job_id] = sjf_score(
                job, total, ctx.estimator, ctx.storage_aware
            )
        return sorted(
            jobs, key=lambda job: (scores[job.job_id], job.job_id)
        )
