"""Additional scheduling objectives in the SiloD framework (§5.2).

The paper notes that the Gavel extension "can not only support the
max-min fairness objective but also all other objectives supported by
Gavel". Two representative ones are implemented here, both consuming the
same SiloDPerf machinery:

* :class:`MaxTotalThroughputPolicy` — maximise the cluster's aggregate
  training throughput (Gavel's utilisation objective). With SiloDPerf
  the optimum has a clean greedy structure: place cache on the most
  cache-efficient datasets (that maximises the egress saved, i.e. the
  extra throughput the same bandwidth can carry), then spend the egress
  budget on the jobs with the *lowest miss ratio* — each MB/s of their
  remote IO buys ``1/miss`` MB/s of training.
* :class:`FinishTimeFairnessPolicy` — Themis-style finish-time fairness:
  maximise the minimum, over jobs, of the job's throughput relative to
  what an exclusive ``1/n`` time slice of the whole cluster would give
  it. Implemented by swapping the max-min normaliser of
  :class:`~repro.core.policies.gavel.GavelPolicy`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.policies.base import ScheduleContext, SchedulingPolicy
from repro.core.policies.gavel import EqualShare, GavelPolicy
from repro.core.policies.greedy import greedy_cache_allocation
from repro.core.resources import Allocation, ResourceVector


class MaxTotalThroughputPolicy(SchedulingPolicy):
    """Maximise aggregate training throughput (cluster utilisation)."""

    name = "max-throughput"
    pure_round = True

    def schedule(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Allocation:
        allocation = Allocation()
        if not jobs:
            return allocation
        if not ctx.storage_aware:
            # Compute-only: every GPU produces throughput for any job, so
            # pack jobs by descending per-GPU throughput.
            ranked = sorted(
                jobs,
                key=lambda j: -ctx.estimator.compute_bound(j, j.num_gpus)
                / j.num_gpus,
            )
            for job in ranked:
                ctx.job_scores[job.job_id] = (
                    ctx.estimator.compute_bound(job, job.num_gpus)
                    / job.num_gpus
                )
            free = total.gpus
            for job in ranked:
                if job.num_gpus <= free:
                    allocation.grant_gpus(job.job_id, job.num_gpus)
                    free -= job.num_gpus
            return allocation

        # Storage-aware: cache by efficiency (Algorithm 2 maximises the
        # egress saved), then admit jobs by *multi-resource density* —
        # achievable throughput per normalised unit of (GPUs + egress)
        # consumed, the Tetris packing heuristic specialised to
        # SiloDPerf's two consumable resources.
        for name, cache_mb in greedy_cache_allocation(
            jobs, total.cache_mb
        ).items():
            allocation.grant_cache(name, cache_mb)

        def miss_ratio(job: Job) -> float:
            hits = ctx.effective_hits_mb(
                job, allocation.cache_of(job.dataset.name)
            )
            return perf_model.miss_ratio(hits, job.dataset.size_mb)

        def density(job: Job) -> float:
            f_star = ctx.estimator.compute_bound(job, job.num_gpus)
            io_cost = f_star * miss_ratio(job)
            gpu_share = job.num_gpus / total.gpus if total.gpus else 0.0
            io_share = (
                io_cost / total.remote_io_mbps
                if total.remote_io_mbps
                else 0.0
            )
            weight = gpu_share + io_share
            return f_star / weight if weight > 0 else float("inf")

        ranked = sorted(jobs, key=lambda j: (-density(j), j.job_id))
        for job in ranked:
            ctx.job_scores[job.job_id] = density(job)
        free_gpus = total.gpus
        free_io = total.remote_io_mbps
        for job in ranked:
            if job.num_gpus > free_gpus:
                continue
            f_star = ctx.estimator.compute_bound(job, job.num_gpus)
            miss = miss_ratio(job)
            need_io = f_star * miss
            grant_io = min(need_io, free_io)
            # Admit even when starved of IO: cache hits still produce
            # throughput, and an idle GPU never does.
            allocation.grant_gpus(job.job_id, job.num_gpus)
            allocation.grant_remote_io(job.job_id, grant_io)
            free_gpus -= job.num_gpus
            free_io -= grant_io
        return allocation


class FinishTimeFairnessPolicy(GavelPolicy):
    """Themis-style finish-time fairness on SiloDPerf.

    A job's *fair finish time* is what it would reach receiving a ``1/n``
    time slice of the whole cluster exclusively; the policy max-mins each
    job's throughput against that reference. Relative to plain max-min
    fairness, the normaliser favours jobs that would run fast alone
    (large exclusive throughput), i.e. it penalises slowing down jobs
    that have the most to lose — Themis's "sharing incentive".
    """

    name = "finish-time-fairness"

    def _normalisers(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, EqualShare]:
        n = len(jobs)
        shares: Dict[str, EqualShare] = {}
        for job in jobs:
            gpus = min(job.num_gpus, total.gpus)
            cache_mb = min(job.dataset.size_mb, total.cache_mb)
            io = total.remote_io_mbps
            if ctx.storage_aware and job.regular:
                exclusive = ctx.estimator.estimate(job, gpus, cache_mb, io)
            else:
                exclusive = ctx.estimator.compute_bound(job, gpus)
            shares[job.job_id] = EqualShare(
                gpus=gpus / n,
                cache_mb=cache_mb / n,
                remote_io_mbps=io / n,
                perf_mbps=max(exclusive / n, 1e-12),
            )
        return shares
