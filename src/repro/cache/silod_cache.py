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
the running jobs' effective bytes (and, for the prefetching extension,
of the queue). :meth:`SiloDDataManager.reallocate` therefore hands the
previous decision object back, unchanged, when none of those moved.
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
    #: The rest of what ``decide`` read (see ``_decide_inputs``).
    inputs: tuple
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

        The memo is keyed on every input ``decide`` reads: the
        ``f_stars`` column object, the scheduler allocation object, the
        running jobs' effective bytes and :meth:`_decide_inputs`. When
        all of them repeat, the previous decision is handed back as the
        *same object* — the simulator's cue that nothing changed and
        nothing needs re-applying. The kernel gathers a fresh column
        only when a scheduling round installs a new allocation, so a
        decision is reused at quiet epoch boundaries and after a
        scheduling round that kept the allocation in force (see
        ``SimulatorKernel._schedule_round``), arrivals included.

        Traced rounds reuse too: a reused round replays the memo's
        ``io_throttle`` events through :func:`trace_io_grants`, which
        are the ones ``decide`` would emit (the same hit ratios and
        grants over the same jobs and column, at this round's clock).
        Otherwise this is :meth:`CacheSystem.reallocate`.
        """
        # Exactly what ``decide`` reads, read before it runs: evictions
        # applying its targets may scale the live map later.
        effective = ctx.effective_mb
        read = [effective.get(job.job_id, 0.0) for job in ctx.running_jobs]
        inputs = self._decide_inputs(ctx)
        memo = self._memo
        if (
            memo is not None
            and ctx.f_stars is memo.f_stars
            and ctx.scheduler_allocation is memo.allocation
            # Exact on purpose: reuse must be bit-identical to decide.
            and inputs == memo.inputs
            and read == memo.effective
        ):
            decision = memo.decision
            if ctx.tracer.enabled:
                trace_io_grants(
                    ctx, decision.hit_ratios, decision.io_grants
                )
            return decision
        decision = super().reallocate(ctx)
        self._memo = _Reusable(
            ctx.f_stars, ctx.scheduler_allocation, inputs, read, decision
        )
        return decision

    def _decide_inputs(self, ctx: StorageContext) -> tuple:
        """What :meth:`decide` reads besides the ``f*`` column, the
        allocation and the effective bytes: the egress cap. A subclass
        whose ``decide`` reads more extends it."""
        return (ctx.total_io_mbps,)

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
        # Two-operand ``min(a, b)`` is written ``b if b < a else a``: the
        # builtin's own comparison (same ties and NaNs), without a call.
        hit_ratios = {}
        for job in jobs:
            hit = effective.get(job.job_id, 0.0) / job.dataset.size_mb
            hit_ratios[job.job_id] = hit if hit < 1.0 else 1.0
        if self._io_allocation:
            # Table 3: allocateRemoteIO — strict throttling to the
            # scheduler's grant. Policies size grants from the
            # *instantaneous* demands (effective cache, §6) at every
            # scheduling round, so enforcement does not second-guess
            # them; capping at the current demand only keeps the
            # accounting honest (a job cannot pull bytes it cannot
            # consume).
            io_grants = {}
            for job, rate in zip(jobs, ctx.f_stars):
                grant = allocation.remote_io_of(job.job_id)
                demand = rate * (1.0 - hit_ratios[job.job_id])
                io_grants[job.job_id] = demand if demand < grant else grant
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
