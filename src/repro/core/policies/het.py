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
``ctx.gen_scores`` (job_id -> {generation: f*}), the one ``f*`` table
the round's greedy ranking and assignment scorer read, and their
placement into ``ctx.gen_assignments``; lint rule POL004 enforces the
former for every ``heterogeneity_aware`` policy, and the provenance
layer carries both into ``decision_job`` events.

On a homogeneous fleet (``ctx.gpu_pools`` absent or single-generation)
:class:`HetMaxMinPolicy` delegates to the parent unchanged — with the
speedup table anchored at the fleet's generation the factors are
exactly 1.0, so allocations are bit-identical to ``GavelPolicy``
(the collapse property of ``tests/core/test_het_perf_model.py``).

This module is pure Python. The assignment scorer
(:class:`_AssignmentScorer`, wrapped by
:func:`common_ratio_for_assignment`) is called directly by the
brute-force property test, and it scores a candidate with the joint
solver's closed-form solve
(:meth:`~repro.core.policies.gavel.Programme.common_ratio`). The
generation pools reach the joint solver as per-round member index
lists (``_pool_members``).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.estimator import HetSiloDPerfEstimator
from repro.core.policies.base import ScheduleContext, place_on_generations
from repro.core.policies.gavel import (
    _EPS,
    EqualShare,
    GavelPolicy,
    Programme,
    equal_division,
)
from repro.core.resources import Allocation, ResourceVector

#: Exhaustive assignment enumeration is used only while
#: ``len(pools) ** len(jobs)`` stays at or below this; larger instances
#: fall back to the deterministic greedy placer.
_ENUM_LIMIT = 256


class _AssignmentScorer:
    """One round's state for scoring generation assignments.

    A candidate is a tuple of generation names, one per job in job
    order. Everything a score depends on is snapshotted at construction
    — per-generation ``f*`` (``f_star_by_gen``, one
    :meth:`~repro.core.estimator.HetSiloDPerfEstimator.f_star_by_generation`
    table per job), the normalisers, GPU counts and the effective cache
    view — so a score computed later sees the round's inputs, not the
    live cluster's. A score is the shared closed-form solve under the
    candidate's ``f*`` and generation pools. :attr:`caps` holds each
    job's :meth:`Programme.cap_limit` term per pool generation.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        pools: Dict[str, int],
        total: ResourceVector,
        f_star_by_gen: Sequence[Dict[str, float]],
        normalisers: Dict[str, float],
        effective_cache_mb=None,
    ) -> None:
        self.jobs = tuple(jobs)
        self.pools = tuple(pools.items())
        self.f_star_by_gen = list(f_star_by_gen)
        # Two-operand ``max(a, b)`` is written ``b if b > a else a`` in
        # this module: the builtin's own comparison, without a call.
        norms = [
            1e-12 if 1e-12 > norm else norm
            for norm in (normalisers[job.job_id] for job in self.jobs)
        ]
        self.programme = Programme(
            self.jobs, norms, effective_cache_mb, total.cache_mb,
            total.remote_io_mbps,
        )
        for gen, _ in self.pools:  # cap_limit's error on an f* <= 0
            self.programme.cap_limit([f[gen] for f in self.f_star_by_gen])
        self.caps = [
            {gen: by_gen[gen] * (1.0 + _EPS) / norm for gen, _ in self.pools}
            for by_gen, norm in zip(self.f_star_by_gen, norms)
        ]
        # No job is frozen, so every saving is proportional to the ratio
        # and the cache plan never changes: one IO limit, solved above
        # every candidate's ``hi``, serves them all.
        fastest = [max(by_gen.values()) for by_gen in self.f_star_by_gen]
        self.io_limit = self.programme.io_limit(
            self.programme.cap_limit(fastest) if self.jobs else 0.0
        )

    def _f_star(self, candidate: Sequence[str]) -> List[float]:
        """Each job's ``f*`` on its generation in ``candidate``."""
        return [
            by_gen[gen]
            for by_gen, gen in zip(self.f_star_by_gen, candidate)
        ]

    def bound(self, candidate: Sequence[str]) -> float:
        """Upper bound on :meth:`ratio`: ``max(hi, 0)``, where ``hi`` is
        the ratio at which the first job reaches its ``f*`` cap."""
        hi = min((c[gen] for c, gen in zip(self.caps, candidate)),
                 default=math.inf)
        return 0.0 if 0.0 > hi else hi

    def ratio(self, candidate: Sequence[str]) -> float:
        """Largest common ratio reachable under ``candidate``."""
        members = [
            (
                capacity,
                [j for j, gen in enumerate(candidate) if gen == pool],
            )
            for pool, capacity in self.pools
        ]
        return self.programme.common_ratio(
            self._f_star(candidate), members, io_limit=self.io_limit
        )


def common_ratio_for_assignment(
    jobs: Sequence[Job],
    assignment: Dict[str, str],
    pools: Dict[str, int],
    total: ResourceVector,
    estimator: HetSiloDPerfEstimator,
    normalisers: Dict[str, float],
    effective_cache_mb=None,
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
        jobs,
        pools,
        total,
        [estimator.f_star_by_generation(job) for job in jobs],
        normalisers,
        effective_cache_mb,
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

    #: A mixed-fleet het-max-min round's job_id -> ``(equal division,
    #: base compute bound at its GPU share, IO bound or None)``.
    _rows: Optional[Dict[str, tuple]] = None

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
            return super().schedule(jobs, total, ctx)
        try:
            assignment = self._assign(list(jobs), dict(pools), total, ctx)
            for job_id, generation in assignment.items():
                estimator.assignments[job_id] = generation
                ctx.gen_assignments[job_id] = generation
            # Pool members and ``f*`` (``compute_bound``'s product under
            # the assignment) once, in the joint solver's ``jobs`` order.
            members: Dict[str, List[int]] = {gen: [] for gen in pools}
            self._f_star = []
            for i, job in enumerate(jobs):
                gen = assignment[job.job_id]
                members[gen].append(i)
                self._f_star.append(float(ctx.gen_scores[job.job_id][gen]))
            self._pool_members = [
                (capacity, members[gen]) for gen, capacity in pools.items()
            ]
            return super().schedule(jobs, total, ctx)
        finally:
            self._pool_members = ()
            self._f_star = self._rows = None

    def _assign(
        self,
        jobs: List[Job],
        pools: Dict[str, int],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, str]:
        raise NotImplementedError

    @staticmethod
    def _greedy_assign(
        jobs: List[Job],
        pools: Dict[str, int],
        ctx: ScheduleContext,
    ) -> Dict[str, str]:
        """Deterministic placer: densest jobs onto the fastest pools,
        ranked by the round's ``ctx.gen_scores``."""
        estimator = ctx.estimator
        default = estimator.default_generation
        ranked = sorted(
            jobs,
            key=lambda j: (
                -ctx.gen_scores[j.job_id][default]
                / (1 if 1 > j.num_gpus else j.num_gpus),
                j.job_id,
            ),
        )
        return place_on_generations(ranked, pools, estimator.speedups)


class HetMaxMinPolicy(_HetGavelBase):
    """Max-min fairness over heterogeneous (gen, cache, IO) allocations.

    The generation assignment maximising the common throughput ratio is
    found exhaustively while ``len(pools) ** len(jobs)`` stays within
    :data:`_ENUM_LIMIT` (ties broken by the lexicographically first
    assignment tuple, so rounds are deterministic); larger instances
    use a greedy placer that sends the highest-density jobs to the
    fastest pools. :attr:`last_assignment_ratio` records the chosen
    assignment's score for diagnostics and the property test.

    The search walks ``itertools.product`` order depth first and skips
    a prefix whose folded caps (:attr:`_AssignmentScorer.caps`) cannot
    beat the best ratio by the strict-improvement margin: no completion's
    bound or score could, and the margin only rises, so the chosen
    assignment and its ratio are those of the full search. Both
    normaliser maps come from one equal-share row per job (:attr:`_rows`).
    """

    name = "het-max-min"

    _last_ratio: float = 0.0
    #: ``(build the round's scorer, candidate)`` of a greedy round,
    #: scored on first read.
    _unscored: Optional[
        Tuple[Callable[[], _AssignmentScorer], Tuple[str, ...]]
    ] = None

    @property
    def last_assignment_ratio(self) -> float:
        """Common ratio of the most recent heterogeneous assignment.

        Exhaustive rounds record it during the search. Greedy rounds
        keep the scorer's inputs, read at schedule time, and build the
        scorer and score the chosen assignment on the first read.
        """
        if self._unscored is not None:
            build, candidate = self._unscored
            self._unscored = None
            self._last_ratio = build().ratio(candidate)
        return self._last_ratio

    def _row_perf(self, job: Job, factor: float) -> float:
        """``equal_share``'s perf at speedup ``factor``, from the row."""
        _, base, io_bound = self._rows[job.job_id]
        f = base * factor
        if io_bound is not None:
            if f < 0:
                raise ValueError("ideal throughput must be non-negative")
            f = io_bound if io_bound < f else f
        return f * job.weight

    def _normalisers(
        self, jobs: Sequence[Job], total: ResourceVector, ctx: ScheduleContext
    ) -> Dict[str, EqualShare]:
        """On a mixed fleet, each row at the job's assigned generation."""
        if self._rows is None:
            return super()._normalisers(jobs, total, ctx)
        speedups, gens = ctx.estimator.speedups, ctx.gen_assignments
        return {
            job.job_id: EqualShare(
                *self._rows[job.job_id][0],
                self._row_perf(job, speedups[gens[job.job_id]]),
            )
            for job in jobs
        }

    def _assign(
        self,
        jobs: List[Job],
        pools: Dict[str, int],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, str]:
        n = len(jobs)
        if n == 0:
            return {}
        estimator = ctx.estimator
        base = estimator.base_estimator
        # Normalisers are assignment-independent: every job at the
        # default generation.
        factor = estimator.speedups[estimator.default_generation]
        rows = self._rows = {}
        normalisers = {}
        for job in jobs:
            share = gpus, cache_mb, io_mbps = equal_division(job, n, total)
            f, io_bound = base(job, gpus), None
            if ctx.storage_aware and job.regular:
                io_bound = perf_model.io_throughput(
                    io_mbps, cache_mb, job.dataset.size_mb
                )
            rows[job.job_id] = (share, f, io_bound)
            perf = self._row_perf(job, factor)
            normalisers[job.job_id] = 1e-12 if 1e-12 > perf else perf
        gens = sorted(pools)
        effective = ctx.effective_cache_mb
        if effective is not None:
            # Copy the values now: a greedy round's scorer is built
            # later, after the simulator's live map may have moved.
            effective = {
                job.job_id: effective.get(job.job_id, 0.0) for job in jobs
            }
        build = functools.partial(
            _AssignmentScorer,
            jobs,
            pools,
            total,
            [ctx.gen_scores[job.job_id] for job in jobs],
            normalisers,
            effective,
        )
        if len(gens) ** n > _ENUM_LIMIT:
            assignment = self._greedy_assign(jobs, pools, ctx)
            self._unscored = (
                build,
                tuple(assignment[job.job_id] for job in jobs),
            )
            return assignment
        scorer = build()
        best: Optional[Tuple[str, ...]] = None
        best_ratio = -1.0
        threshold = best_ratio * (1.0 + _EPS) + 1e-15
        prefix: List[str] = []

        def walk(hi: float) -> None:
            """Score ``prefix``'s completions; ``hi`` (>= 0) folds its caps."""
            nonlocal best, best_ratio, threshold
            j = len(prefix)
            if j == n:
                candidate = tuple(prefix)
                ratio = scorer.ratio(candidate)
                if ratio > threshold:
                    best, best_ratio = candidate, ratio
                    threshold = ratio * (1.0 + _EPS) + 1e-15
                return
            for gen in gens:
                cap = scorer.caps[j][gen]
                low = cap if cap < hi else hi
                if low > threshold:
                    prefix.append(gen)
                    walk(low)
                    prefix.pop()

        walk(math.inf)
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
            gpus, cache_mb, io_mbps = equal_division(job, len(jobs), total)
            f_star = ctx.estimator.compute_bound(job, job.num_gpus)
            shares[job.job_id] = EqualShare(
                gpus, cache_mb, io_mbps,
                (1e-12 if 1e-12 > f_star else f_star) * job.weight,
            )
        return shares

    def _assign(
        self,
        jobs: List[Job],
        pools: Dict[str, int],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, str]:
        return self._greedy_assign(jobs, pools, ctx)
