"""Cache-subsystem interface shared by the simulators.

A cache system answers three questions on every scheduling round:

1. **Placement** — how much of each dataset (or each job's private slice,
   for CoorDL) should be resident, i.e. target resident bytes per *cache
   key*;
2. **Hit model** — given a job's currently *effective* cached bytes, what
   hit ratio does it see (uniform caching: ``c_eff/d``; LRU: the thrashing
   closed form);
3. **Remote IO division** — how the egress bandwidth is split across jobs
   (baselines fair-share it; the SiloD data manager enforces the
   scheduler's grants).

The simulators own the cache *dynamics* — resident bytes fill at the miss
rate, newly cached items become effective at the next epoch boundary (§6
"delayed effectiveness"), shrinking a target evicts randomly — and query
the cache system for the three decisions above through
:meth:`CacheSystem.decide`. Each round they hand it one
:class:`StorageContext`: the running jobs with their compute bounds
``f*`` (one column, aligned with the jobs) and a map of their effective
cached bytes, both gathered once by the simulator.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies import io_share
from repro.core.resources import Allocation
from repro.obs import events as ev
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclasses.dataclass
class StorageContext:
    """Inputs to a cache system's per-round decision.

    Both simulators build it in one place,
    :meth:`~repro.sim.kernel.SimulatorKernel._storage_context`. The
    per-job inputs of §6 come as plain columns, gathered once per
    allocation: ``f_stars`` aligned with ``running_jobs`` and the
    ``effective_mb`` map. Consumers treat both as read-only.
    """

    #: Jobs currently holding GPUs.
    running_jobs: Sequence[Job]
    #: GPUs granted per job (fractional under Gavel time-sharing).
    gpu_grants: Dict[str, float]
    total_gpus: float
    total_cache_mb: float
    total_io_mbps: float
    #: Effective cached bytes per job id (from sim state); a job absent
    #: from the map has none.
    effective_mb: Mapping[str, float]
    #: Whether the job has completed at least one full epoch.
    first_epoch_done: Callable[[Job], bool]
    estimator: SiloDPerfEstimator
    #: Each running job's compute bound under its GPU grant:
    #: ``f_stars[i] == estimator.compute_bound(running_jobs[i],
    #: gpu_grants.get(running_jobs[i].job_id, 0.0))``.
    f_stars: Sequence[float]
    clock_s: float = 0.0
    #: The scheduler's joint allocation; only the SiloD data manager and
    #: ablations read it.
    scheduler_allocation: Optional[Allocation] = None
    #: Jobs admitted to the cluster but not currently holding GPUs;
    #: prefetching extensions warm their datasets with spare resources.
    queued_jobs: Sequence[Job] = ()
    #: Observability sink (``repro.obs``); cache systems emit one
    #: ``io_throttle`` event per running job through it (see
    #: :func:`trace_io_grants`). Defaults to the free no-op tracer.
    tracer: Tracer = NULL_TRACER


@dataclasses.dataclass
class StorageDecision:
    """Outputs of a cache system's per-round decision."""

    #: Target resident bytes per cache key (dataset name, or job id for
    #: per-job private caches).
    cache_targets: Dict[str, float]
    #: Expected hit ratio per running job under current effective bytes.
    hit_ratios: Dict[str, float]
    #: Remote IO bandwidth granted per running job, MB/s.
    io_grants: Dict[str, float]
    #: Spare-bandwidth prefetch rates per cache key, MB/s (Hoard-style
    #: warm-up of queued jobs' datasets; empty for most systems).
    prefetch_rates: Dict[str, float] = dataclasses.field(
        default_factory=dict
    )


class CacheSystem(abc.ABC):
    """Base class for Alluxio / CoorDL / Quiver / the SiloD data manager."""

    #: Display name used in experiment reports.
    name: str = "cache"
    #: Whether cache keys are per-job (private caches) rather than
    #: per-dataset (shared distributed caches).
    per_job_keys: bool = False

    def cache_key(self, job: Job) -> str:
        """The cache-state key this job's data lives under."""
        return job.job_id if self.per_job_keys else job.dataset.name

    @abc.abstractmethod
    def decide(self, ctx: StorageContext) -> StorageDecision:
        """Compute placement targets, hit ratios, and IO grants."""

    def reallocate(self, ctx: StorageContext) -> StorageDecision:
        """Incremental re-allocation entry point for running systems.

        Batch runs, epoch boundaries, fault recovery, and the online
        service (``repro.serve``) all re-divide the cache through this
        one method, so online mode cannot drift from batch mode. The
        default delegates to :meth:`decide`; stateful systems may
        override it to reuse work across consecutive rounds, but must
        return bit-identical decisions to ``decide`` on the same
        context.

        Returning the *same object* as the previous call means
        "unchanged; apply nothing": the simulator then keeps the
        targets and rates it installed for that decision. A system may
        do so only when ``decide`` would return an equal decision and
        the previous one is still the one in force.
        """
        return self.decide(ctx)

    def reset(self) -> None:
        """Clear any internal profiling state between simulation runs."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def fair_share_io(
    ctx: StorageContext, hit_ratios: Dict[str, float]
) -> Dict[str, float]:
    """Max-min fair egress division over the jobs' miss-rate demands.

    When the scheduler does not manage remote IO, the account's egress cap
    is shared by the jobs' competing fetch streams — per-flow congestion
    control approximates a work-conserving max-min division of the
    *demands*, which is what all baseline cache systems get. (Per-VM
    physical caps, as in Figure 4's 2-VM example, are modelled by the
    experiment configuration instead.)
    """
    demands = {}
    for job, rate in zip(ctx.running_jobs, ctx.f_stars):
        demands[job.job_id] = rate * (1.0 - hit_ratios.get(job.job_id, 0.0))
    return io_share.max_min_waterfill(demands, ctx.total_io_mbps)


def trace_io_grants(
    ctx: StorageContext,
    hit_ratios: Dict[str, float],
    io_grants: Dict[str, float],
) -> None:
    """Emit one ``io_throttle`` event per running job for this round.

    Every cache system calls this right before returning its
    :class:`StorageDecision`, so the event log carries, per decision
    round and per job: the compute-bound rate, the modelled hit ratio,
    the induced remote-IO demand, and the grant that throttles it. The
    ``report`` CLI reconstructs the Figure 9/11 throughput timeline
    from exactly these events. Free when tracing is off.
    """
    tracer = ctx.tracer
    if not tracer.enabled:
        return
    for job, desired in zip(ctx.running_jobs, ctx.f_stars):
        hit = hit_ratios.get(job.job_id, 0.0)
        hit = hit if hit > 0.0 else 0.0
        hit = hit if hit < 1.0 else 1.0
        demand = desired * (1.0 - hit)
        grant = io_grants.get(job.job_id, 0.0)
        tracer.emit(
            ctx.clock_s,
            ev.IO_THROTTLE,
            job.job_id,
            desired_mbps=desired,
            hit_ratio=hit,
            demand_mbps=demand,
            grant_mbps=grant,
            capped=grant < demand - 1e-9,
        )
