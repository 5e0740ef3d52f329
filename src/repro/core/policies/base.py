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

FIFO, SJF and LAS are :class:`OrderBasedPolicy` subclasses: each only
ranks the jobs, and one shared round admits whole jobs in that order
and, in SiloD mode, attaches ``allocate_storage_greedily`` — cache
placed with Algorithm 2, then remote IO divided across the induced
demands (§5.3). FIFO keeps a :class:`StorageStepMemo`, so its step
reuses its last grants when its inputs repeat.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.estimator import HetSiloDPerfEstimator, SiloDPerfEstimator
from repro.core.policies import io_share
from repro.core.policies.greedy import greedy_cache_allocation
from repro.core.resources import Allocation, ResourceVector


@dataclasses.dataclass
class ScheduleContext:
    """Everything a policy needs besides the job list and totals.

    It carries no tracer: a policy is a pure function of its inputs
    (Algorithm 1), and the scheduler reports each round's decision.
    """

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
        # ``min(a, b)`` as the builtin's own comparison, without a call.
        hits_mb = self.effective_cache_mb.get(job.job_id, 0.0)
        return (
            hits_mb if hits_mb < allocated_cache_mb else allocated_cache_mb
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
) -> List[Job]:
    """Admit whole jobs in priority order while GPUs remain.

    A job that does not fit is skipped and the scan continues
    (backfill), as practical FIFO queues and SJF do. Returns the
    admitted jobs and records their GPU grants in ``allocation``.
    """
    admitted: List[Job] = []
    free = total_gpus
    for job in ordered_jobs:
        if job.num_gpus <= free + 1e-9:
            allocation.grant_gpus(job.job_id, job.num_gpus)
            admitted.append(job)
            free -= job.num_gpus
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


class StorageStepMemo:
    """The last greedy storage step of one policy: inputs and grants.

    :func:`allocate_storage_greedily` reads and refills it. The grants
    are a pure function of the key, so a memo is sound for any caller.
    """

    __slots__ = ("key", "cache", "io")

    def __init__(self) -> None:
        self.key: Optional[tuple] = None
        self.cache: Dict[str, float] = {}
        self.io: Dict[str, float] = {}


def _storage_step_key(
    running_jobs: Sequence[Job],
    total: ResourceVector,
    allocation: Allocation,
    ctx: ScheduleContext,
    io_priority_order: Optional[Sequence[str]],
) -> tuple:
    """Everything the greedy storage step reads."""
    jobs = list(running_jobs)
    gpu_map = allocation.gpus
    estimator = ctx.estimator
    effective = ctx.effective_cache_mb
    return (
        jobs,
        [gpu_map.get(job.job_id, 0.0) for job in jobs],
        estimator,
        [estimator.assignments.get(job.job_id) for job in jobs]
        if isinstance(estimator, HetSiloDPerfEstimator)
        else None,
        None
        if effective is None
        else [effective.get(job.job_id, 0.0) for job in jobs],
        total.cache_mb,
        total.remote_io_mbps,
        list(allocation.cache.items()),
        None if io_priority_order is None else list(io_priority_order),
    )


def allocate_storage_greedily(
    running_jobs: Sequence[Job],
    total: ResourceVector,
    allocation: Allocation,
    ctx: ScheduleContext,
    io_priority_order: Optional[Sequence[str]] = None,
    memo: Optional[StorageStepMemo] = None,
) -> None:
    """SiloD's storage step for order-based policies (FIFO, SJF, LAS).

    Cache goes to the most cache-efficient datasets (Algorithm 2); remote
    IO is then divided over the induced *instantaneous* demands — max-min
    waterfilling by default, or full-demand-first in ``io_priority_order``
    when the policy has a job ordering to respect.

    With a ``memo``, a step whose inputs equal the memo's — the jobs in
    order, their GPU grants and generations (what the estimator reads),
    their effective bytes, the cache and IO totals, the allocation's
    cache grants and the IO priority order — grants what the last step
    granted, in the same order, instead of recomputing it.
    """
    key = None
    if memo is not None:
        key = _storage_step_key(
            running_jobs, total, allocation, ctx, io_priority_order
        )
    # Exact on purpose: a reused step must be bit-identical to a solve.
    if key is not None and key == memo.key:
        for name, cache_mb in memo.cache.items():
            allocation.grant_cache(name, cache_mb)
        grants = memo.io
    else:
        cache = greedy_cache_allocation(running_jobs, total.cache_mb)
        for name, cache_mb in cache.items():
            allocation.grant_cache(name, cache_mb)
        demands = instantaneous_io_demands(running_jobs, allocation, ctx)
        if io_priority_order is not None:
            grants = io_share.priority_fill(
                io_priority_order, demands, total.remote_io_mbps
            )
        else:
            grants = io_share.max_min_waterfill(
                demands, total.remote_io_mbps
            )
        if memo is not None:
            memo.key = key
            memo.cache = cache
            memo.io = grants
    for job_id, mbps in grants.items():
        allocation.grant_remote_io(job_id, mbps)


class OrderBasedPolicy(SchedulingPolicy):
    """A policy that only ranks jobs; the round is shared (§5.3).

    SiloD gives order-based schedulers (FIFO, SJF, LAS) its greedy
    storage step: :meth:`schedule` admits whole jobs in :meth:`order`'s
    ranking, then in SiloD mode places cache with Algorithm 2 and
    divides remote IO over the admitted jobs.
    """

    #: Divide remote IO by max-min waterfilling; otherwise fill each
    #: job's full demand in the policy's order.
    waterfill_io: bool = False

    #: The memo the storage step reuses its last grants from, if any.
    _storage_memo: Optional[StorageStepMemo] = None

    @abc.abstractmethod
    def order(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> List[Job]:
        """The jobs by priority; fills ``ctx.job_scores``."""

    def schedule(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Allocation:
        allocation = Allocation()
        ordered = self.order(jobs, total, ctx)
        admitted = admit_in_order(ordered, total.gpus, allocation)
        if ctx.storage_aware and admitted:
            allocate_storage_greedily(
                admitted,
                total,
                allocation,
                ctx,
                io_priority_order=None
                if self.waterfill_io
                else [job.job_id for job in ordered],
                memo=self._storage_memo,
            )
        return allocation


def place_on_generations(
    ranked: Sequence[Job],
    pools: Mapping[str, int],
    speedups: Mapping[str, float],
) -> Dict[str, str]:
    """Job id -> GPU generation, placing ``ranked`` jobs in turn.

    Each job goes to the fastest pool (ties: name) with room for its
    whole request; when none has room it time-shares the emptiest pool.
    """
    order = sorted(pools, key=lambda gen: (-speedups.get(gen, 1.0), gen))
    remaining = dict(pools)
    assignment: Dict[str, str] = {}
    for job in ranked:
        for gen in order:
            if remaining[gen] >= job.num_gpus:
                break
        else:
            gen = max(order, key=lambda g: (remaining[g], g))
        left = remaining[gen] - job.num_gpus
        remaining[gen] = left if left > 0 else 0
        assignment[job.job_id] = gen
    return assignment
