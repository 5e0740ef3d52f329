"""The SiloD scheduling framework (Algorithm 1, §3 and §6).

``SiloDScheduler`` wires a scheduling policy to the SiloD-enhanced
performance estimator and adds the two framework-level behaviours:

* **Joint allocation**: storage (cache, remote IO) is included in
  ``totalResource`` and the policy's allocation covers all three resource
  types (Algorithm 1 line 7).
* **Irregular-job partitioning** (§6): jobs whose data access does not
  satisfy SiloDPerf's assumptions are placed in a separate cache/IO
  partition sized by their GPU demand; they are scheduled with the original
  (compute-only) estimator while regular jobs keep the full co-design.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro import units
from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.estimator import (
    HetSiloDPerfEstimator,
    SiloDPerfEstimator,
)
from repro.core.policies.base import (
    ScheduleContext,
    SchedulingPolicy,
    place_on_generations,
)
from repro.core.resources import Allocation, ResourceVector
from repro.obs import events as ev
from repro.obs.tracer import NULL_TRACER, Tracer


class SiloDScheduler:
    """Algorithm 1: ``alloc = Policy.Schedule(jobs, totalResource, SiloDPerf)``.

    Parameters
    ----------
    policy:
        Any :class:`SchedulingPolicy` (FIFO, multi-resource SJF, Gavel).
    estimator:
        The enhanced performance estimator; defaults to SiloDPerf over the
        linear compute estimator.
    storage_aware:
        Set False to reproduce the *vanilla* (decoupled) configuration the
        paper compares against: the policy then allocates GPUs only and an
        external cache subsystem manages storage.
    tracer:
        Structured-event sink (``repro.obs``); every call to
        :meth:`schedule` emits one ``sched_decision`` event with the
        policy name, job counts, grant aggregates, and wall-clock
        decision latency. Defaults to the free no-op tracer.
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        estimator: SiloDPerfEstimator = None,
        storage_aware: bool = True,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.policy = policy
        self.estimator = estimator or SiloDPerfEstimator()
        self.storage_aware = storage_aware
        self.tracer = tracer
        #: Per-job policy scores from the most recent :meth:`schedule`
        #: call (merged across partitions). Read by the simulators to
        #: stamp ``decision_job`` provenance events; empty before the
        #: first round. A reused round (see :meth:`schedule`) keeps
        #: this and the other ``last_*`` fields of the round that
        #: computed the allocation — what a fresh solve would publish.
        self.last_scores: Dict[str, float] = {}
        #: Reference GPU generation: the one jobs are profiled on
        #: (speedup factor exactly 1.0). Updated by
        #: :meth:`enable_heterogeneity` from the cluster.
        self.default_generation: str = "V100"
        #: Generation -> GPU count on a mixed fleet; ``None`` while the
        #: cluster is homogeneous (the pre-heterogeneity behaviour).
        self.gpu_pools: Optional[Dict[str, int]] = None
        #: job_id -> assigned generation from the last round. Every
        #: running job has an entry (generation-naive policies get a
        #: deterministic default placement); read by the simulators for
        #: ``decision_job`` provenance.
        self.last_generations: Dict[str, str] = {}
        #: job_id -> {generation: f* MB/s} from the last round —
        #: the per-generation compute bounds the policy weighed.
        self.last_gen_scores: Dict[str, Dict[str, float]] = {}
        #: The inputs of the last round of a ``pure_round`` policy,
        #: and the allocation in force: the object the last
        #: call returned (see :meth:`schedule`).
        self._round_key: Optional[tuple] = None
        self._round_allocation: Optional[Allocation] = None
        #: The placement the allocation in force came with:
        #: ``last_generations`` on a mixed fleet and the het
        #: estimator's ``assignments``, as their solve left them.
        self._round_placement: Optional[tuple] = None

    def enable_heterogeneity(self, cluster) -> None:
        """Adopt the cluster's generation mix (called by the simulators).

        Homogeneous clusters only update :attr:`default_generation` —
        numerics are untouched, so pre-heterogeneity runs stay
        bit-identical. Mixed fleets install a
        :class:`HetSiloDPerfEstimator` anchored at the cluster's
        reference generation and expose per-generation GPU pools to
        the policy.
        """
        gpu = getattr(cluster, "gpu", None)
        if gpu is not None:
            self.default_generation = gpu.name
        pools = getattr(cluster, "gpus_by_generation", None)
        if not pools or len(pools) <= 1:
            self.gpu_pools = None
        else:
            self.gpu_pools = dict(pools)
            if not isinstance(self.estimator, HetSiloDPerfEstimator):
                self.estimator = HetSiloDPerfEstimator(
                    speedups=perf_model.default_speedup_table(
                        reference=self.default_generation
                    ),
                    default_generation=self.default_generation,
                    base_estimator=self.estimator.compute_estimator,
                )

    def schedule(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        now_s: float = 0.0,
        effective_cache_mb: Optional[Mapping[str, float]] = None,
        attained_service_s: Optional[Callable[[Job], float]] = None,
    ) -> Allocation:
        """Produce a joint allocation for the current job set.

        ``effective_cache_mb`` maps each job id to its effective cached
        bytes (absent = none), so remote-IO grants track instantaneous
        demands (§6); ``attained_service_s`` feeds service-based
        priorities (Tiresias-style LAS). Omit both for one-shot
        steady-state allocations.

        A round of a ``pure_round`` policy whose inputs equal the
        previous call's — the same jobs in the same order, their
        effective bytes, the totals, and the policy, estimator, GPU
        pools and storage awareness — hands back the allocation already
        returned, without calling the policy: a fresh solve would return
        an equal one. The ``last_*`` fields and the het estimator's
        ``assignments`` stay those of that solve. Traced or not, every
        call emits one ``sched_decision``, read from the allocation it
        returns; a reused round's ``latency_ms`` times the reuse.

        A solve whose allocation equals the one in force also hands
        back the in-force object, so callers can test identity: the
        same ``gpus``, ``cache`` and ``remote_io`` items in the same key
        order and, on a mixed fleet, the same ``last_generations`` and
        estimator ``assignments``. The ``last_*`` fields are the
        solve's own.
        """
        tracer = self.tracer
        # Wall-clock by design: ``latency_ms`` reports the *real* cost of
        # a decision round, not simulated time; it never feeds back into
        # scheduling, so determinism of the run is unaffected.
        # lint: disable=DET003
        t0 = time.perf_counter() if tracer.enabled else 0.0
        key = None
        if self.policy.pure_round:
            key = (
                list(jobs),
                None
                if effective_cache_mb is None
                else [effective_cache_mb.get(job.job_id) for job in jobs],
                total,
                self.policy,
                self.estimator,
                self.gpu_pools,
                self.storage_aware,
            )
        # Exact on purpose: a reused round must be bit-identical to a
        # solve.
        if key is None or key != self._round_key:  # lint: disable=FLT001
            self._round_key = key
            self.last_scores = {}
            self.last_gen_scores = {}
            self.last_generations = {}
            if isinstance(self.estimator, HetSiloDPerfEstimator):
                # Generation maps are per-round; stale entries from the
                # previous round must not leak into the new solve.
                self.estimator.assignments.clear()
            # The regular list is only needed when partitioning actually
            # happens — in the (common) all-regular case one pass
            # suffices.
            irregular = [j for j in jobs if not j.regular]
            if not self.storage_aware or not irregular:
                allocation = self._schedule_pool(
                    list(jobs),
                    total,
                    now_s,
                    self.storage_aware,
                    effective_cache_mb,
                    attained_service_s,
                )
            else:
                allocation = self._schedule_partitioned(
                    [j for j in jobs if j.regular],
                    irregular,
                    total,
                    now_s,
                    effective_cache_mb,
                    attained_service_s,
                )
            placement = (
                self.last_generations if self.gpu_pools is not None else None,
                dict(self.estimator.assignments)
                if isinstance(self.estimator, HetSiloDPerfEstimator)
                else None,
            )
            in_force = self._round_allocation
            if (
                in_force is None
                or placement != self._round_placement
                or not same_allocation(allocation, in_force)
            ):
                self._round_allocation = allocation
                self._round_placement = placement
        allocation = self._round_allocation
        if tracer.enabled:
            tracer.emit(
                now_s,
                ev.SCHED_DECISION,
                policy=self.policy.name,
                storage_aware=self.storage_aware,
                num_jobs=len(jobs),
                num_running=sum(
                    1 for g in allocation.gpus.values() if g > 0
                ),
                gpus_granted=sum(allocation.gpus.values()),
                cache_granted_mb=sum(allocation.cache.values()),
                io_granted_mbps=sum(allocation.remote_io.values()),
                latency_ms=units.seconds_to_ms(
                    time.perf_counter() - t0  # lint: disable=DET003
                ),
            )
        return allocation

    # ------------------------------------------------------------------

    def _schedule_pool(
        self,
        jobs: List[Job],
        total: ResourceVector,
        now_s: float,
        storage_aware: bool,
        effective_cache_mb: Optional[Mapping[str, float]] = None,
        attained_service_s: Optional[Callable[[Job], float]] = None,
    ) -> Allocation:
        ctx = ScheduleContext(
            estimator=self.estimator,
            storage_aware=storage_aware,
            now_s=now_s,
            effective_cache_mb=effective_cache_mb,
            attained_service_s=attained_service_s,
            gpu_pools=self.gpu_pools,
        )
        allocation = self.policy.schedule(jobs, total, ctx)
        self.last_scores.update(ctx.job_scores)
        self.last_gen_scores.update(ctx.gen_scores)
        self.last_generations.update(ctx.gen_assignments)
        self._complete_generations(jobs, allocation)
        return allocation

    def _complete_generations(
        self, jobs: Sequence[Job], allocation: Allocation
    ) -> None:
        """Default generation placement for generation-naive policies.

        Heterogeneity-aware policies fill ``ctx.gen_assignments``
        themselves; for the rest (FIFO, SJF, vanilla Gavel) on a mixed
        fleet, running jobs are placed deterministically — largest GPU
        grant first (ties by job_id) onto the fastest pool with
        remaining whole-request capacity, overflow time-sharing the
        emptiest pool. This is bookkeeping for provenance/placement
        only: a naive policy's estimator still prices every GPU at the
        reference speed, which is exactly the pessimism the
        heterogeneity-aware objectives remove.
        """
        if self.gpu_pools is None:
            for job in jobs:
                self.last_generations.setdefault(
                    job.job_id, self.default_generation
                )
            return
        unassigned = [
            j
            for j in jobs
            if j.job_id not in self.last_generations
            and allocation.gpus_of(j.job_id) > 0
        ]
        if not unassigned:
            return
        speedups: Mapping[str, float] = (
            self.estimator.speedups
            if isinstance(self.estimator, HetSiloDPerfEstimator)
            else {}
        )
        ranked = sorted(
            unassigned,
            key=lambda j: (-allocation.gpus_of(j.job_id), j.job_id),
        )
        self.last_generations.update(
            place_on_generations(ranked, self.gpu_pools, speedups)
        )

    def _schedule_partitioned(
        self,
        regular: List[Job],
        irregular: List[Job],
        total: ResourceVector,
        now_s: float,
        effective_cache_mb: Optional[Mapping[str, float]] = None,
        attained_service_s: Optional[Callable[[Job], float]] = None,
    ) -> Allocation:
        """§6: split cache/IO between a regular and an irregular pool.

        The partitions are sized by each group's aggregate GPU demand so
        neither pool starves; GPUs themselves remain a single pool handled
        by the policy (the partitioning in the paper concerns storage).
        """
        demand_reg = sum(j.num_gpus for j in regular)
        demand_irr = sum(j.num_gpus for j in irregular)
        frac_reg = (
            demand_reg / (demand_reg + demand_irr)
            if demand_reg + demand_irr > 0
            else 0.0
        )
        total_reg = ResourceVector(
            gpus=total.gpus * frac_reg,
            cache_mb=total.cache_mb * frac_reg,
            remote_io_mbps=total.remote_io_mbps * frac_reg,
        )
        total_irr = ResourceVector(
            gpus=total.gpus - total_reg.gpus,
            cache_mb=total.cache_mb - total_reg.cache_mb,
            remote_io_mbps=total.remote_io_mbps - total_reg.remote_io_mbps,
        )
        alloc_reg = self._schedule_pool(
            regular,
            total_reg,
            now_s,
            True,
            effective_cache_mb,
            attained_service_s,
        )
        alloc_irr = self._schedule_pool(
            irregular, total_irr, now_s, False, None, attained_service_s
        )
        # Irregular jobs fall back to the original policy/estimator and
        # share their partition's storage equally.
        running_irr = [
            j for j in irregular if alloc_irr.gpus_of(j.job_id) > 0
        ]
        if running_irr:
            cache_each = total_irr.cache_mb / len(running_irr)
            io_each = total_irr.remote_io_mbps / len(running_irr)
            for job in running_irr:
                dataset = job.dataset.name
                alloc_irr.grant_cache(
                    dataset,
                    min(
                        job.dataset.size_mb,
                        alloc_irr.cache_of(dataset) + cache_each,
                    ),
                )
                alloc_irr.grant_remote_io(job.job_id, io_each)
        return merge_allocations(alloc_reg, alloc_irr)


def same_allocation(first: Allocation, second: Allocation) -> bool:
    """Whether two allocations grant the same items in the same order.

    Key order counts: consumers iterate the grant dicts, so only an
    allocation equal in order can stand in for the other.
    """
    # Exact on purpose: a handed-back allocation must be bit-identical
    # to the solve it replaces.
    return (
        list(first.gpus.items()) == list(second.gpus.items())
        and list(first.cache.items()) == list(second.cache.items())
        and list(first.remote_io.items()) == list(second.remote_io.items())
    )


def merge_allocations(first: Allocation, second: Allocation) -> Allocation:
    """Combine two disjoint-pool allocations into one.

    GPU and IO grants are per job and must not collide; cache grants for a
    dataset appearing in both pools take the larger grant (cache is charged
    once per dataset).
    """
    merged = Allocation()
    for source in (first, second):
        for job_id, gpus in source.gpus.items():
            if job_id in merged.gpus:
                raise ValueError(f"job {job_id} allocated in both pools")
            merged.grant_gpus(job_id, gpus)
        for job_id, mbps in source.remote_io.items():
            merged.grant_remote_io(
                job_id, merged.remote_io_of(job_id) + mbps
            )
        for name, cache_mb in source.cache.items():
            merged.grant_cache(name, max(merged.cache_of(name), cache_mb))
    return merged
