"""The SiloD data manager (§6, Figure 7, Table 3).

The data manager is the storage-layer half of SiloD: it *enforces* the
scheduler's joint allocation. It exposes the two allocation APIs of
Table 3 — ``allocateCacheSize(dataset, size)`` and
``allocateRemoteIO(job, speed)`` — implements uniform caching per dataset,
evicts randomly when an allocation shrinks, and throttles each job's
remote fetches to its grant.

Enforcement is **work-conserving**: a job whose cached data is not yet
effective (first epoch; §6 "delayed effectiveness") cannot use cache hits,
so its instantaneous remote-IO demand exceeds its steady-state grant. The
data manager guarantees every job ``min(grant, demand)`` and waterfills
the leftover egress bandwidth over residual demands — matching the paper's
fine-grained management of "the effective cache size and the
instantaneous remote IO demand".

Enforcement is also *per job* (Table 3's ``allocateRemoteIO(job,
speed)``): within one allocation epoch a decision is a pure function of
the running jobs' effective bytes. :meth:`SiloDDataManager.reallocate`
therefore hands the previous decision object back, unchanged, at an
epoch boundary where none of those bytes moved.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

from repro.cache.base import (
    CacheSystem,
    StorageContext,
    StorageDecision,
    fair_share_io,
    trace_io_grants,
)
from repro.core.resources import Allocation


class _Reusable(NamedTuple):
    """A decision plus every input it may be handed back for."""

    f_stars: Sequence[float]
    allocation: Optional[Allocation]
    total_io_mbps: float
    #: The effective bytes ``decide`` read, in ``running_jobs`` order.
    effective: List[float]
    decision: StorageDecision


class SiloDDataManager(CacheSystem):
    """Enforces the scheduler's cache/IO allocation (uniform caching).

    Parameters
    ----------
    io_allocation:
        When False, the scheduler's remote-IO grants are ignored and the
        egress bandwidth is fair-shared instead — the §7.2 ablation
        ("disabling the allocation of remote IO"), which degrades fairness
        by ~31% in the paper while barely moving JCT/makespan.
    """

    name = "silod"

    def __init__(self, io_allocation: bool = True) -> None:
        self._io_allocation = io_allocation
        if not io_allocation:
            self.name = "silod-no-io-alloc"
        #: The last reusable decision (see :meth:`reallocate`).
        self._memo: Optional[_Reusable] = None

    def reset(self) -> None:
        """Drop the reusable decision (a data-manager crash loses it)."""
        self._memo = None

    def reallocate(self, ctx: StorageContext) -> StorageDecision:
        """Return the previous decision object when nothing it read moved.

        Within one allocation epoch (the same ``f_stars`` column object,
        scheduler allocation and egress cap) a decision depends only on
        the running jobs' effective bytes, so when every one equals the
        value the previous ``decide`` read, that decision is handed back
        as the *same object* — the simulator's cue that nothing changed
        and nothing needs re-applying. A simulator that gathers a fresh
        column every round therefore never sees a reused decision.
        Traced rounds always recompute: each emits its own
        ``io_throttle`` events. Otherwise this is
        :meth:`CacheSystem.reallocate`.
        """
        if ctx.tracer.enabled:
            self._memo = None
            return super().reallocate(ctx)
        # Exactly what ``decide`` reads, read before it runs: evictions
        # applying its targets may scale the live map later.
        effective = ctx.effective_mb
        read = [effective.get(job.job_id, 0.0) for job in ctx.running_jobs]
        memo = self._memo
        if (
            memo is not None
            and ctx.f_stars is memo.f_stars
            and ctx.scheduler_allocation is memo.allocation
            # Exact on purpose: reuse must be bit-identical to decide.
            # lint: disable=FLT001
            and ctx.total_io_mbps == memo.total_io_mbps
            and read == memo.effective
        ):
            return memo.decision
        decision = super().reallocate(ctx)
        self._memo = _Reusable(
            ctx.f_stars,
            ctx.scheduler_allocation,
            ctx.total_io_mbps,
            read,
            decision,
        )
        return decision

    def decide(self, ctx: StorageContext) -> StorageDecision:
        jobs = ctx.running_jobs
        if not jobs:
            return StorageDecision({}, {}, {})
        allocation = ctx.scheduler_allocation
        if allocation is None:
            raise ValueError(
                "SiloDDataManager requires the scheduler's allocation; "
                "run it with a storage-aware SiloDScheduler"
            )

        # Table 3: allocateCacheSize — cache targets straight from the
        # scheduler, at dataset granularity.
        targets = {
            name: cache_mb
            for name, cache_mb in allocation.cache.items()
            if cache_mb > 0
        }
        effective = ctx.effective_mb
        hit_ratios = {
            job.job_id: min(
                1.0, effective.get(job.job_id, 0.0) / job.dataset.size_mb
            )
            for job in jobs
        }
        if self._io_allocation:
            # Table 3: allocateRemoteIO — strict throttling to the
            # scheduler's grant. Policies size grants from the
            # *instantaneous* demands (effective cache, §6) at every
            # scheduling round, so enforcement does not second-guess
            # them; capping at the current demand only keeps the
            # accounting honest (a job cannot pull bytes it cannot
            # consume).
            io_grants = {
                job.job_id: min(
                    allocation.remote_io_of(job.job_id),
                    rate * (1.0 - hit_ratios[job.job_id]),
                )
                for job, rate in zip(jobs, ctx.f_stars)
            }
        else:
            # Ablation (§7.2): the scheduler's IO grants are discarded
            # and the egress is shared work-conservingly over the raw
            # demands — the division the cloud's per-flow congestion
            # control would reach on its own. Cache co-design remains.
            io_grants = fair_share_io(ctx, hit_ratios)
        trace_io_grants(ctx, hit_ratios, io_grants)
        return StorageDecision(
            cache_targets=targets,
            hit_ratios=hit_ratios,
            io_grants=io_grants,
        )
