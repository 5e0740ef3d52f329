"""Heterogeneity-aware objectives over (GPU generation, cache, IO).

Gavel (Narayanan et al., OSDI 2020) generalises max-min fairness to
heterogeneous fleets by making throughput a function of *which* GPU
generation a job runs on: ``f*(job, gen)``. This module composes that
idea with SiloD's Eq. 4 cache/IO term, so one allocation round trades
cache shares against generation placement:

* :class:`HetMaxMinPolicy` — max-min fairness over heterogeneous
  allocations. The generation assignment is chosen to maximise the
  common throughput ratio (exhaustive enumeration on small instances,
  deterministic greedy beyond :data:`_ENUM_LIMIT` candidates); the
  joint (GPU share, cache, IO) division then reuses
  :class:`~repro.core.policies.gavel.GavelPolicy`'s progressive-filling
  machinery with per-generation GPU pools added to the feasibility
  check.
* :class:`HetMaxThroughputPolicy` — max-sum-throughput. Fast
  generations go to the jobs with the highest data-rate density
  (``f*`` per requested GPU), and the water-filling normaliser is the
  job's own heterogeneous compute bound, so the common ratio *is* the
  fraction of aggregate peak throughput achieved — maximising the
  ratio maximises the sum within the filling family.

Both policies publish per-generation compute bounds into
``ctx.gen_scores`` (job_id -> {generation: f*}) and their placement
into ``ctx.gen_assignments``; lint rule POL004 enforces the former for
every ``heterogeneity_aware`` policy, and the provenance layer carries
both into ``decision_job`` events.

On a homogeneous fleet (``ctx.gpu_pools`` absent or single-generation)
:class:`HetMaxMinPolicy` delegates to the parent unchanged — with the
speedup table anchored at the fleet's generation the factors are
exactly 1.0, so allocations are bit-identical to ``GavelPolicy``
(the collapse property of ``tests/core/test_het_perf_model.py``).

Like ``gavel.py``, this module imports numpy unconditionally: the
joint solver is deliberately outside the ``REPRO_NO_NUMPY`` fallback
surface, so backend choice never changes policy numerics. The
assignment scorer (:class:`_AssignmentScorer`, wrapped by
:func:`common_ratio_for_assignment`) is pure Python for the same
reason — the brute-force property test calls it directly.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import (
    _EPS,
    _ITERS,
    EqualShare,
    GavelPolicy,
    equal_share,
)
from repro.core.resources import Allocation, ResourceVector

#: Exhaustive assignment enumeration is used only while
#: ``len(pools) ** len(jobs)`` stays at or below this; larger instances
#: fall back to the deterministic greedy placer.
_ENUM_LIMIT = 256


def _greedy_cache_plan(
    jobs: Sequence[Job],
    targets: Sequence[float],
    budget_mb: float,
) -> Dict[str, float]:
    """Pure-Python mirror of ``_JointArrays.cache_plan_with_budget``.

    Greedy by marginal IO saving ``sum_{j on D} T_j / d_D`` (``targets``
    aligned with ``jobs``), stable on ties by first-appearance order
    (matching numpy's stable argsort over the same dataset ordering).
    """
    position: Dict[str, int] = {}
    sizes: Dict[str, float] = {}
    saving: Dict[str, float] = {}
    for job, target in zip(jobs, targets):
        name = job.dataset.name
        if name not in position:
            position[name] = len(position)
            sizes[name] = job.dataset.size_mb
            saving[name] = 0.0
        saving[name] += target / job.dataset.size_mb
    ranked = sorted(
        position, key=lambda name: (-saving[name], position[name])
    )
    grants: Dict[str, float] = {}
    before = 0.0
    for name in ranked:
        grants[name] = min(sizes[name], max(0.0, budget_mb - before))
        before += sizes[name]
    return grants


class _AssignmentScorer:
    """One round's state for scoring generation assignments.

    A candidate is a tuple of generation names, one per job in job
    order. Everything a score depends on is snapshotted at construction
    — per-generation ``f*``, the normalisers, GPU counts and the
    effective cache view — so a score computed later sees the round's
    inputs, not the live cluster's.

    Feasibility of a ratio ``t`` has three parts: every target
    ``t * normaliser`` within the job's ``f*``, every generation pool's
    GPU demand within its capacity, and the remote IO left after the
    greedy cache plan within the IO budget. The normalisers do not
    depend on the assignment, so neither does the cache/IO part: it is
    memoised per ratio for the round. Only the first two parts run per
    candidate.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        pools: Dict[str, int],
        total: ResourceVector,
        estimator: HetSiloDPerfEstimator,
        normalisers: Dict[str, float],
        effective_cache_mb=None,
        iters: int = _ITERS,
    ) -> None:
        self.jobs = tuple(jobs)
        self.pools = tuple(pools.items())
        self.cache_mb = total.cache_mb
        self.remote_io_mbps = total.remote_io_mbps
        self.iters = iters
        self.f_star_by_gen = [
            estimator.f_star_by_generation(job) for job in self.jobs
        ]
        self.norms = [normalisers[job.job_id] for job in self.jobs]
        self.floors = [max(norm, 1e-12) for norm in self.norms]
        self.gpus = [job.num_gpus for job in self.jobs]
        if effective_cache_mb is None:
            self.eff = [job.dataset.size_mb for job in self.jobs]
        else:
            self.eff = [effective_cache_mb(job) for job in self.jobs]
        self._io_memo: Dict[float, bool] = {}

    def _f_star(self, candidate: Sequence[str]) -> List[float]:
        """Each job's ``f*`` on its generation in ``candidate``."""
        return [
            by_gen[gen]
            for by_gen, gen in zip(self.f_star_by_gen, candidate)
        ]

    def _hi(self, f_star: List[float]) -> float:
        """The ratio at which the first job reaches its ``f*``."""
        return min(f / floor for f, floor in zip(f_star, self.floors))

    def bound(self, candidate: Sequence[str]) -> float:
        """Upper bound on :meth:`ratio`: ``max(hi, 0)``.

        The bisection returns ``hi`` itself or a point of ``[0, hi)``.
        """
        return max(self._hi(self._f_star(candidate)), 0.0)

    def _io_feasible(self, ratio: float, targets: List[float]) -> bool:
        """Cache/IO part of feasibility, memoised per ratio."""
        ok = self._io_memo.get(ratio)
        if ok is None:
            cache = _greedy_cache_plan(self.jobs, targets, self.cache_mb)
            total_io = 0.0
            for job, target, eff in zip(self.jobs, targets, self.eff):
                hits = min(cache[job.dataset.name], eff)
                miss = 1.0 - min(1.0, hits / job.dataset.size_mb)
                total_io += target * miss
            ok = total_io <= self.remote_io_mbps * (1.0 + _EPS)
            self._io_memo[ratio] = ok
        return ok

    def ratio(self, candidate: Sequence[str]) -> float:
        """Largest common ratio reachable under ``candidate``."""
        if not self.jobs:
            return 0.0
        f_star = self._f_star(candidate)
        members = [
            (
                capacity,
                [j for j, gen in enumerate(candidate) if gen == pool],
            )
            for pool, capacity in self.pools
        ]

        def feasible(ratio: float) -> bool:
            targets = [ratio * norm for norm in self.norms]
            for target, cap in zip(targets, f_star):
                if target > cap * (1.0 + _EPS):
                    return False
            for capacity, indices in members:
                demand = 0.0
                for j in indices:
                    if f_star[j] > 0:
                        demand += targets[j] / f_star[j] * self.gpus[j]
                if demand > capacity * (1.0 + _EPS):
                    return False
            return self._io_feasible(ratio, targets)

        hi = self._hi(f_star)
        if feasible(hi):
            return hi
        lo = 0.0
        for _ in range(self.iters):
            mid = (lo + hi) / 2.0
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        return lo


def common_ratio_for_assignment(
    jobs: Sequence[Job],
    assignment: Dict[str, str],
    pools: Dict[str, int],
    total: ResourceVector,
    estimator: HetSiloDPerfEstimator,
    normalisers: Dict[str, float],
    effective_cache_mb=None,
    iters: int = _ITERS,
) -> float:
    """Largest common ratio ``t`` reachable under a generation map.

    Every job must reach ``t * normalisers[job_id]`` subject to its
    heterogeneous compute bound, per-generation GPU pool capacities,
    the shared cache budget (greedy IO-minimising plan), and the shared
    remote-IO budget. Pure Python — the max-min brute-force property
    test scores candidate assignments with exactly this function, and
    :class:`HetMaxMinPolicy` scores them with the same
    :class:`_AssignmentScorer`.
    """
    scorer = _AssignmentScorer(
        jobs, pools, total, estimator, normalisers, effective_cache_mb,
        iters,
    )
    return scorer.ratio(
        tuple(
            assignment.get(job.job_id, estimator.default_generation)
            for job in scorer.jobs
        )
    )


class _HetGavelBase(GavelPolicy):
    """Shared machinery: assignment hand-off + pool-aware feasibility."""

    #: Marks the policy for lint rule POL004 (must publish per-
    #: generation scores) and for the scheduler's provenance plumbing.
    heterogeneity_aware = True

    #: Per-round ``(capacity, job mask)`` per generation pool, consumed
    #: by :meth:`_feasible`; ``None`` outside a heterogeneous round.
    _pool_masks: Optional[List[Tuple[int, np.ndarray]]] = None

    def schedule(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Allocation:
        estimator = ctx.estimator
        het = isinstance(estimator, HetSiloDPerfEstimator)
        if het:
            for job in jobs:
                ctx.gen_scores[job.job_id] = (
                    estimator.f_star_by_generation(job)
                )
        pools = ctx.gpu_pools
        if not het or not pools or len(pools) <= 1:
            # Homogeneous fleet (or no generation model): the speedup
            # factor is 1.0 everywhere, so the parent's allocation is
            # already optimal — delegate bit-identically.
            if het:
                for job in jobs:
                    ctx.gen_assignments[job.job_id] = (
                        estimator.default_generation
                    )
            self._pool_masks = None
            return super().schedule(jobs, total, ctx)
        assignment = self._assign(list(jobs), dict(pools), total, ctx)
        for job_id, generation in assignment.items():
            estimator.assignments[job_id] = generation
            ctx.gen_assignments[job_id] = generation
        # The joint solver's arrays keep ``jobs`` order, so the masks
        # are built once here rather than on every bisection step.
        self._pool_masks = [
            (
                capacity,
                np.fromiter(
                    (assignment.get(job.job_id) == gen for job in jobs),
                    bool,
                    count=len(jobs),
                ),
            )
            for gen, capacity in pools.items()
        ]
        try:
            return super().schedule(jobs, total, ctx)
        finally:
            self._pool_masks = None

    def _assign(
        self,
        jobs: List[Job],
        pools: Dict[str, int],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, str]:
        raise NotImplementedError

    def _feasible(
        self,
        ratio: float,
        arrays,
        frozen: np.ndarray,
        frozen_targets: np.ndarray,
        total: ResourceVector,
    ) -> bool:
        """Parent feasibility plus per-generation GPU pool capacities.

        GPU slack distributed after the max-min targets are met still
        draws on the shared total (a deliberate approximation — slack
        only raises throughputs, never the binding minimum).
        """
        if not super()._feasible(
            ratio, arrays, frozen, frozen_targets, total
        ):
            return False
        masks = self._pool_masks
        if not masks:
            return True
        targets = np.where(
            frozen, frozen_targets, ratio * arrays.perf_eq
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(
                arrays.f_star > 0, targets / arrays.f_star, 0.0
            )
        demand = fractions * arrays.gpus
        for capacity, mask in masks:
            if float(demand[mask].sum()) > capacity * (1.0 + _EPS):
                return False
        return True

    @staticmethod
    def _pools_fastest_first(
        pools: Dict[str, int], estimator: HetSiloDPerfEstimator
    ) -> List[str]:
        """Pool names by descending speedup (ties: name) — greedy order."""
        return sorted(
            pools,
            key=lambda gen: (-estimator.speedups.get(gen, 1.0), gen),
        )

    def _greedy_assign(
        self,
        jobs: List[Job],
        pools: Dict[str, int],
        estimator: HetSiloDPerfEstimator,
    ) -> Dict[str, str]:
        """Deterministic placer: densest jobs onto the fastest pools."""
        order = self._pools_fastest_first(pools, estimator)
        remaining = dict(pools)
        assignment: Dict[str, str] = {}
        ranked = sorted(
            jobs,
            key=lambda j: (
                -estimator.f_star_by_generation(j)[
                    estimator.default_generation
                ]
                / max(j.num_gpus, 1),
                j.job_id,
            ),
        )
        for job in ranked:
            placed = None
            for gen in order:
                if remaining[gen] >= job.num_gpus:
                    placed = gen
                    break
            if placed is None:
                # Nothing fits wholly: time-share the emptiest pool.
                placed = max(
                    order, key=lambda gen: (remaining[gen], gen)
                )
            remaining[placed] = max(
                0, remaining[placed] - job.num_gpus
            )
            assignment[job.job_id] = placed
        return assignment


class HetMaxMinPolicy(_HetGavelBase):
    """Max-min fairness over heterogeneous (gen, cache, IO) allocations.

    The generation assignment maximising the common throughput ratio is
    found exhaustively while ``len(pools) ** len(jobs)`` stays within
    :data:`_ENUM_LIMIT` (ties broken by the lexicographically first
    assignment tuple, so rounds are deterministic); larger instances
    use a greedy placer that sends the highest-density jobs to the
    fastest pools. :attr:`last_assignment_ratio` records the chosen
    assignment's score for diagnostics and the property test.

    The search skips a candidate whose upper bound
    (:meth:`_AssignmentScorer.bound`) cannot beat the best ratio by the
    strict-improvement margin: its score could not either, so the
    chosen assignment and its ratio are those of the full search.
    """

    name = "het-max-min"

    _last_ratio: float = 0.0
    #: ``(scorer, candidate)`` of a greedy round, scored on first read.
    _unscored: Optional[Tuple[_AssignmentScorer, Tuple[str, ...]]] = None

    @property
    def last_assignment_ratio(self) -> float:
        """Common ratio of the most recent heterogeneous assignment.

        Exhaustive rounds record it during the search. Greedy rounds
        defer the bisection to the first read, over the inputs the
        round's scorer snapshotted at schedule time.
        """
        if self._unscored is not None:
            scorer, candidate = self._unscored
            self._unscored = None
            self._last_ratio = scorer.ratio(candidate)
        return self._last_ratio

    def _assign(
        self,
        jobs: List[Job],
        pools: Dict[str, int],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, str]:
        estimator = ctx.estimator
        # Normalisers must be assignment-independent: clear any stale
        # generation map before evaluating equal shares.
        for job in jobs:
            estimator.assignments.pop(job.job_id, None)
        shares = self._normalisers(jobs, total, ctx)
        normalisers = {
            job_id: max(share.perf_mbps, 1e-12)
            for job_id, share in shares.items()
        }
        gens = sorted(pools)
        n = len(jobs)
        if n == 0:
            return {}
        scorer = _AssignmentScorer(
            jobs,
            pools,
            total,
            estimator,
            normalisers,
            ctx.effective_cache_mb,
        )
        if len(gens) ** n > _ENUM_LIMIT:
            assignment = self._greedy_assign(jobs, pools, estimator)
            self._unscored = (
                scorer,
                tuple(assignment[job.job_id] for job in jobs),
            )
            return assignment
        best: Optional[Tuple[str, ...]] = None
        best_ratio = -1.0
        for candidate in itertools.product(gens, repeat=n):
            threshold = best_ratio * (1.0 + _EPS) + 1e-15
            if scorer.bound(candidate) <= threshold:
                continue
            ratio = scorer.ratio(candidate)
            if ratio > threshold:
                best_ratio = ratio
                best = candidate
        self._last_ratio = best_ratio
        self._unscored = None
        assert best is not None
        return {job.job_id: gen for job, gen in zip(jobs, best)}


class HetMaxThroughputPolicy(_HetGavelBase):
    """Max-sum-throughput over heterogeneous allocations.

    Fast generations are assigned to the jobs with the highest
    data-rate density (``f*`` per requested GPU), and the water-filling
    normaliser is each job's own heterogeneous compute bound — so the
    progressive-filling ratio is the fraction of aggregate peak
    throughput achieved, and maximising it maximises the sum. The Eq. 4
    cache/IO coupling is unchanged: cache still goes to the datasets
    with the highest marginal IO saving at the chosen targets.
    """

    name = "het-max-throughput"

    def _normalisers(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, EqualShare]:
        """Normalise by the job's compute bound, not the equal share."""
        shares = {}
        for job in jobs:
            share = equal_share(
                job, len(jobs), total, ctx.estimator, ctx.storage_aware
            )
            f_star = ctx.estimator.compute_bound(job, job.num_gpus)
            shares[job.job_id] = EqualShare(
                gpus=share.gpus,
                cache_mb=share.cache_mb,
                remote_io_mbps=share.remote_io_mbps,
                perf_mbps=max(f_star, 1e-12) * job.weight,
            )
        return shares

    def _assign(
        self,
        jobs: List[Job],
        pools: Dict[str, int],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, str]:
        estimator = ctx.estimator
        for job in jobs:
            estimator.assignments.pop(job.job_id, None)
        return self._greedy_assign(jobs, pools, estimator)
