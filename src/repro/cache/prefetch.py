"""Hoard-style dataset prefetching on top of the SiloD data manager.

Hoard (Pinto et al., §8) prefetches datasets into the local cache before
their jobs start, "useful when there is redundant remote IO bandwidth
thus orthogonal to SiloD". This extension composes the two: the SiloD
data manager enforces the scheduler's allocation for *running* jobs, and
whatever egress bandwidth and cache space remain in an instant are spent
warming the datasets of *queued* jobs so they skip (part of) their cold
first epoch when scheduled.

Queued datasets are prioritised by their prospective cache efficiency
(Eq 5 evaluated with the queued jobs' ``f*``), the same ranking
Algorithm 2 uses for running jobs. Prefetching never takes more than
:data:`MAX_PREFETCH_FRACTION` of the egress budget.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cache.base import StorageContext, StorageDecision
from repro.cache.silod_cache import SiloDDataManager
from repro.core import perf_model

#: Upper bound on the fraction of the egress budget prefetching may
#: consume, even when more is idle (a safety margin so a burst of
#: instantaneous demand from running jobs is not starved between
#: scheduling rounds).
MAX_PREFETCH_FRACTION = 0.8


class PrefetchingDataManager(SiloDDataManager):
    """SiloD data manager + spare-capacity prefetch for queued jobs."""

    name = "silod-prefetch"

    def _decide_inputs(self, ctx: StorageContext) -> tuple:
        # A copy of the queue: the kernel appends arrivals to it.
        return super()._decide_inputs(ctx) + (
            ctx.total_cache_mb,
            list(ctx.queued_jobs),
        )

    def decide(self, ctx: StorageContext) -> StorageDecision:
        decision = super().decide(ctx)
        queued = list(ctx.queued_jobs)
        if not queued:
            return decision

        spare_io = min(
            max(0.0, ctx.total_io_mbps - sum(decision.io_grants.values())),
            MAX_PREFETCH_FRACTION * ctx.total_io_mbps,
        )
        spare_cache = max(
            0.0, ctx.total_cache_mb - sum(decision.cache_targets.values())
        )
        if spare_io <= 1e-9 or spare_cache <= 1e-9:
            return decision

        # Rank queued datasets by prospective cache efficiency; skip
        # datasets the running allocation already targets.
        candidates: Dict[str, Tuple[float, float]] = {}
        for job in queued:
            name = job.dataset.name
            if decision.cache_targets.get(name, 0.0) > 0:
                continue
            efficiency, size = candidates.get(
                name, (0.0, job.dataset.size_mb)
            )
            candidates[name] = (
                efficiency
                + perf_model.cache_efficiency(
                    job.ideal_throughput_mbps, job.dataset.size_mb
                ),
                size,
            )
        ranked: List[Tuple[str, float]] = [
            (name, size)
            for name, (_eff, size) in sorted(
                candidates.items(), key=lambda kv: (-kv[1][0], kv[0])
            )
        ]
        targets = dict(decision.cache_targets)
        prefetch: Dict[str, float] = {}
        remaining_cache = spare_cache
        selected: List[str] = []
        for name, size in ranked:
            grant = min(size, remaining_cache)
            if grant <= 1e-9:
                break
            targets[name] = grant
            remaining_cache -= grant
            selected.append(name)
        if selected:
            rate_each = spare_io / len(selected)
            for name in selected:
                prefetch[name] = rate_each
        return StorageDecision(
            cache_targets=targets,
            hit_ratios=decision.hit_ratios,
            io_grants=decision.io_grants,
            prefetch_rates=prefetch,
        )
