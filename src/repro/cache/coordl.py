"""CoorDL baseline: per-job static uniform caches (§2.1, §7).

CoorDL builds uniform caching *into the data-loading library*: each job
caches independently on the local disks inside its own VM, statically
sized by the VM's provisioning (368 GB per V100 on Azure). The policy is
right for a single job but blind across jobs — the paper's micro-benchmark
shows it wasting half the cluster's cache on a BERT job that barely
benefits.

Fluid model: job ``j``'s private target is
``min(d_j, per_gpu_cache * num_gpus)``, where ``per_gpu_cache`` is the
cluster pool divided by the cluster's GPU count (the micro-benchmark's
2 TB / 8 GPUs = 256 GB per GPU); hits follow uniform caching on the
job's *effective* private bytes; remote IO is fair-shared.
"""

from __future__ import annotations

from typing import Dict

from repro.cache.base import (
    CacheSystem,
    StorageContext,
    StorageDecision,
    fair_share_io,
    trace_io_grants,
)


class CoorDLCache(CacheSystem):
    """Per-job static uniform caching."""

    name = "coordl"
    per_job_keys = True

    def decide(self, ctx: StorageContext) -> StorageDecision:
        jobs = list(ctx.running_jobs)
        if not jobs:
            return StorageDecision({}, {}, {})
        # Static provisioning is per GPU *slot*, not per running job: the
        # denominator is the cluster's GPU count.
        total_gpus = ctx.total_gpus
        per_gpu = ctx.total_cache_mb / total_gpus if total_gpus > 0 else 0.0
        targets: Dict[str, float] = {}
        hit_ratios: Dict[str, float] = {}
        for job in jobs:
            targets[job.job_id] = min(
                job.dataset.size_mb, per_gpu * job.num_gpus
            )
            hit_ratios[job.job_id] = min(
                1.0,
                ctx.effective_mb.get(job.job_id, 0.0) / job.dataset.size_mb,
            )
        io_grants = fair_share_io(ctx, hit_ratios)
        trace_io_grants(ctx, hit_ratios, io_grants)
        return StorageDecision(
            cache_targets=targets, hit_ratios=hit_ratios, io_grants=io_grants
        )
