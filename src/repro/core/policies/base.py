"""Scheduling-policy interface (Algorithm 1's ``Policy.Schedule``).

A policy maps (jobs, total resources, performance estimator) to an
:class:`~repro.core.resources.Allocation`. Policies run in one of two
modes:

* **storage-aware** (SiloD): the policy allocates GPUs, cache, and remote
  IO jointly, using the SiloD-enhanced estimator;
* **vanilla**: the policy allocates GPUs only (using the compute-only
  estimate), and an independent cache subsystem (Alluxio / CoorDL /
  Quiver) decides storage on its own — the decoupled design the paper
  argues against.

``allocate_storage_greedily`` is the shared storage step used by FIFO and
SJF in SiloD mode: place cache with Algorithm 2, then divide remote IO
across the induced demands.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies import io_share
from repro.core.policies.greedy import greedy_cache_allocation
from repro.core.resources import Allocation, ResourceVector
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclasses.dataclass
class ScheduleContext:
    """Everything a policy needs besides the job list and totals."""

    estimator: SiloDPerfEstimator = dataclasses.field(
        default_factory=SiloDPerfEstimator
    )
    storage_aware: bool = True
    now_s: float = 0.0
    #: Each job's currently *effective* cached bytes, by job id (§6:
    #: policies inspect the effective cache size to compute
    #: instantaneous remote-IO demands); a job absent from the map has
    #: none. ``None`` means assume allocations are fully warm (steady
    #: state) — the right default for one-shot analytic uses of a
    #: policy. Policies read it during ``schedule`` and keep no
    #: reference: the simulator's map is live.
    effective_cache_mb: Optional[Mapping[str, float]] = None
    #: GPU-seconds of service a job has attained so far (Tiresias-style
    #: policies prioritise the least-attained job). ``None`` when the
    #: caller does not track progress; LAS then falls back to zero.
    attained_service_s: Optional[Callable[[Job], float]] = None
    #: Observability sink (``repro.obs``): policies may bump counters or
    #: emit events through it; defaults to the free no-op tracer.
    tracer: Tracer = NULL_TRACER
    #: Out-parameter: the score each policy ordered/sized jobs by this
    #: round (arrival rank for FIFO, the Eq 6/7 completion-time score
    #: for SJF, attained service for LAS, the max-min throughput target
    #: for Gavel). Policies fill it during ``schedule``; the decision-
    #: provenance layer (``repro.obs.prov``) carries it into the
    #: ``decision_job`` events.
    job_scores: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: GPU pools by generation name (generation -> GPU count) on a
    #: mixed fleet; ``None`` on homogeneous clusters. Heterogeneity-
    #: aware policies treat each pool as a separate GPU capacity
    #: constraint when placing jobs on generations.
    gpu_pools: Optional[Dict[str, int]] = None
    #: Out-parameter: per-generation compute bounds the policy weighed
    #: this round (job_id -> {generation: f* MB/s}). Heterogeneity-
    #: aware policies must publish it (lint rule POL004); it reaches
    #: the ``decision_job`` provenance as ``f_star_gen_mbps``.
    gen_scores: Dict[str, Dict[str, float]] = dataclasses.field(
        default_factory=dict
    )
    #: Out-parameter: the generation each job was assigned to this
    #: round (job_id -> generation name). Filled by heterogeneity-aware
    #: policies; the scheduler completes it with a deterministic
    #: default assignment for generation-naive policies.
    gen_assignments: Dict[str, str] = dataclasses.field(
        default_factory=dict
    )

    def effective_hits_mb(self, job: Job, allocated_cache_mb: float) -> float:
        """Bytes of cache a job can hit *right now* under an allocation."""
        if self.effective_cache_mb is None:
            return allocated_cache_mb
        return min(
            allocated_cache_mb, self.effective_cache_mb.get(job.job_id, 0.0)
        )


class SchedulingPolicy(abc.ABC):
    """Base class for FIFO / multi-resource SJF / Gavel."""

    #: Human-readable policy name used in reports.
    name: str = "policy"

    #: Whether a round depends only on the job list, the totals, the
    #: effective-bytes map and the scheduler's fixed state (estimator,
    #: ``gpu_pools``, ``storage_aware``) — never on ``ctx.now_s`` or
    #: ``ctx.attained_service_s``. ``SiloDScheduler.schedule`` may
    #: then hand back the allocation in force, without calling
    #: :meth:`schedule`, on an untraced round whose inputs equal the
    #: previous round's. A property of the policy's code (lint rule
    #: POL005), not a user option.
    pure_round: bool = False

    @abc.abstractmethod
    def schedule(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Allocation:
        """Produce a joint allocation for the given jobs."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def admit_in_order(
    ordered_jobs: Sequence[Job],
    total_gpus: float,
    allocation: Allocation,
    backfill: bool = True,
) -> List[Job]:
    """Admit whole jobs in priority order while GPUs remain.

    With ``backfill`` (default), a job that does not fit is skipped and the
    scan continues — the behaviour of SJF and of practical FIFO queues.
    Without it, admission stops at the first job that does not fit
    (head-of-line blocking).

    Returns the admitted jobs and records their GPU grants in
    ``allocation``.
    """
    admitted: List[Job] = []
    free = total_gpus
    for job in ordered_jobs:
        if job.num_gpus <= free + 1e-9:
            allocation.grant_gpus(job.job_id, job.num_gpus)
            admitted.append(job)
            free -= job.num_gpus
        elif not backfill:
            break
    return admitted


def instantaneous_io_demands(
    jobs: Sequence[Job],
    allocation: Allocation,
    ctx: ScheduleContext,
) -> Dict[str, float]:
    """Each running job's remote-IO demand at its compute-bound speed.

    Demand is Eq 2 evaluated at ``f*`` (scaled by the GPU grant) under the
    cache the job can *hit right now* — the effective slice of its
    allocation (§6). Without an effective-cache view this reduces to the
    steady-state demand.
    """
    jobs = list(jobs)
    gpu_map = allocation.gpus
    f_stars = ctx.estimator.compute_bound_batch(
        jobs, [gpu_map.get(job.job_id, 0.0) for job in jobs]
    )
    demands: Dict[str, float] = {}
    for job, f_star in zip(jobs, f_stars):
        hits_mb = ctx.effective_hits_mb(
            job, allocation.cache_of(job.dataset.name)
        )
        demands[job.job_id] = perf_model.remote_io_demand(
            f_star, hits_mb, job.dataset.size_mb
        )
    return demands


def allocate_storage_greedily(
    running_jobs: Sequence[Job],
    total: ResourceVector,
    allocation: Allocation,
    ctx: ScheduleContext,
    io_priority_order: Optional[Sequence[str]] = None,
) -> None:
    """SiloD's storage step for order-based policies (FIFO, SJF).

    Cache goes to the most cache-efficient datasets (Algorithm 2); remote
    IO is then divided over the induced *instantaneous* demands — max-min
    waterfilling by default, or full-demand-first in ``io_priority_order``
    when the policy has a job ordering to respect.
    """
    for name, cache_mb in greedy_cache_allocation(
        running_jobs, total.cache_mb
    ).items():
        allocation.grant_cache(name, cache_mb)
    demands = instantaneous_io_demands(running_jobs, allocation, ctx)
    if ctx.tracer.enabled:
        ctx.tracer.metrics.inc("policy.storage_rounds")
        ctx.tracer.metrics.set_gauge(
            "policy.last_io_demand_mbps", sum(demands.values())
        )
    if io_priority_order is not None:
        grants = io_share.priority_fill(
            io_priority_order, demands, total.remote_io_mbps
        )
    else:
        grants = io_share.max_min_waterfill(demands, total.remote_io_mbps)
    for job_id, mbps in grants.items():
        allocation.grant_remote_io(job_id, mbps)
