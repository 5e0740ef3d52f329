"""Gavel max-min fairness (§5.2, Eq 8-9).

Gavel maximises the minimum, over jobs, of the job's throughput relative to
what it would get under an **equal division** of the cluster
(``R_equal``). Vanilla Gavel sees only compute, so it reduces to
proportional GPU time-sharing; SiloD-Gavel replaces ``perf`` with SiloDPerf
and adds cache and remote IO as allocation dimensions (Eq 9).

SiloDPerf is quasi-concave in the allocation — the super-level set
"throughput >= T" is ``{x >= T/f*} ∩ {b >= T (1 - c/d)}``, an intersection
of half-spaces — so the max-min programme is solved *exactly* by bisection
on the common ratio ``t``:

* GPU feasibility is linear: ``sum_j (T_j / f*_j) g_j <= G``.
* Storage feasibility is a one-dimensional greedy: to minimise total
  remote IO subject to the cache budget, give cache to the datasets with
  the highest marginal saving ``sum_{j on D} T_j / d_D`` (cache efficiency
  evaluated at the targets), then check ``sum_j b_j <= B``.

Lexicographic (progressive-filling) max-min: jobs whose ``f*`` cap binds at
the current ratio are frozen at ``f*`` and the ratio keeps rising for the
rest; when a shared resource binds, the loop ends and remaining slack is
handed out in a final filling pass.

The joint solver runs on every scheduling round, on plain floats
(:class:`_JointRound`). Its sums copy numpy's pairwise summation
(:func:`_pairwise_sum`) and its cache ranking numpy's stable argsort,
because the bit-exact anchors were pinned while a numpy solver ran every
round; ``sum()`` would move the last bits. Every job's ``f*`` must be
positive: a compute estimator that returns ``0`` for some job is an
error, not a job that needs no GPUs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies.base import ScheduleContext, SchedulingPolicy
from repro.core.resources import Allocation, ResourceVector

#: Bisection iterations (relative precision ~1e-9 on the ratio).
_ITERS = 40
_EPS = 1e-9


def _pairwise(values: Sequence[float], start: int, n: int) -> float:
    """numpy's ``pairwise_sum`` over ``values[start:start + n]``: in
    order below 8 elements, 8 strided partial sums up to 128 (numpy's
    unroll factor and block size), halves beyond."""
    if n < 8:
        res = 0.0
        for i in range(start, start + n):
            res += values[i]
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, start + n):
            res += values[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(values, start, half) + _pairwise(
        values, start + half, n - half
    )


def _pairwise_sum(values: Sequence[float]) -> float:
    """numpy's ``sum`` of ``values`` as a float64 array, bit for bit.

    numpy reduces a float64 vector from ``0.0`` plus a pairwise sum of
    all of it: sequential below 8 elements, 8 strided accumulators
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` up to 128, and
    halves split at a multiple of 8 beyond. ``sum()`` and ``math.fsum``
    round differently.
    """
    return 0.0 + _pairwise(values, 0, len(values))


class _Datasets:
    """The round's datasets, numbered in first-appearance job order."""

    def __init__(self, jobs: Sequence[Job]) -> None:
        index: Dict[str, int] = {}
        #: Dataset names and sizes, by dataset number.
        self.names: List[str] = []
        self.size: List[float] = []
        #: Each job's dataset number and dataset size.
        self.index: List[int] = []
        self.d: List[float] = []
        for job in jobs:
            name = job.dataset.name
            if name not in index:
                index[name] = len(self.names)
                self.names.append(name)
                self.size.append(float(job.dataset.size_mb))
            self.index.append(index[name])
            self.d.append(float(job.dataset.size_mb))
        self.private = len(self.names) == len(self.index)

    def cache_plan(
        self, targets: Sequence[float], budget_mb: float
    ) -> List[float]:
        """IO-minimising cache grant per dataset for the given targets.

        Greedy by marginal saving ``sum_{j on D} T_j / d_D``, with
        numpy's floats: savings accumulate per dataset in job order from
        ``0.0`` (as ``bincount`` does), rank by a stable sort on the
        negated saving (as ``argsort(kind="stable")``), and the budget
        is spent against a running prefix sum (``cumsum``) clipped to
        ``[0, size]``.
        """
        d = self.d
        if self.private:
            saving = [t / size for t, size in zip(targets, d)]
        else:
            saving = [0.0] * len(self.names)
            for k, t, size in zip(self.index, targets, d):
                saving[k] += t / size
        neg = [-x for x in saving]
        sizes = self.size
        grants = [0.0] * len(neg)
        before = 0.0
        for k in sorted(range(len(neg)), key=neg.__getitem__):
            size = sizes[k]
            # ``min(max(budget - before, 0.0), size)``, without the calls.
            grant = budget_mb - before
            if grant < 0.0:
                grant = 0.0
            grants[k] = size if size < grant else grant
            before += size
        return grants


@dataclasses.dataclass(frozen=True)
class EqualShare:
    """A job's slice of ``R_equal`` and its performance under it."""

    gpus: float
    cache_mb: float
    remote_io_mbps: float
    perf_mbps: float


def equal_share(
    job: Job,
    num_jobs: int,
    total: ResourceVector,
    estimator: SiloDPerfEstimator,
    storage_aware: bool,
) -> EqualShare:
    """``R_equal``: the cluster divided evenly among ``num_jobs`` jobs.

    GPU share is capped at the job's request; cache share at its dataset
    size. Vanilla Gavel's equal-share performance ignores storage.
    """
    if num_jobs < 1:
        raise ValueError("need at least one job")
    gpus = min(job.num_gpus, total.gpus / num_jobs)
    cache_mb = min(job.dataset.size_mb, total.cache_mb / num_jobs)
    io_mbps = total.remote_io_mbps / num_jobs
    if storage_aware and job.regular:
        perf = estimator.estimate(job, gpus, cache_mb, io_mbps)
    else:
        perf = estimator.compute_bound(job, gpus)
    return EqualShare(gpus, cache_mb, io_mbps, perf)


@dataclasses.dataclass
class _JointSolution:
    """One round's max-min targets and the grants that meet them."""

    #: Per dataset, in first-appearance job order.
    ds_names: List[str]
    cache_mb: List[float]
    #: Per job, in round order.
    targets: List[float]
    gpus: List[float]
    remote_io_mbps: List[float]
    #: ``sum(remote_io_mbps)`` as numpy sums it.
    used_io_mbps: float


class _JointRound:
    """One round of the joint solver.

    The round's constants are lists built once. :meth:`solve` runs the
    progressive-filling loop over :meth:`_bisect`, then computes the
    grants that meet the targets. A job whose ``f*`` is not positive
    raises ``ValueError``: its GPU demand ``t / f*`` would be undefined.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        shares: Dict[str, EqualShare],
        ctx: ScheduleContext,
        total: ResourceVector,
        pools: Sequence[Tuple[int, List[int]]],
    ) -> None:
        estimator = ctx.estimator
        self.f_star = [
            float(estimator.compute_bound(j, j.num_gpus)) for j in jobs
        ]
        for job, f in zip(jobs, self.f_star):
            if not f > 0.0:
                raise ValueError(
                    f"job {job.job_id}: the compute estimator gave "
                    f"f* = {f!r}; the joint solver needs f* > 0"
                )
        self.f_cap = [f * (1.0 + _EPS) for f in self.f_star]
        self.perf_eq = [
            float(max(shares[j.job_id].perf_mbps, 1e-12)) for j in jobs
        ]
        self.gpus = [float(j.num_gpus) for j in jobs]
        self.datasets = _Datasets(jobs)
        # Effective cached bytes visible right now (§6): the IO cost of a
        # target must be paid against hits the job can actually take.
        # Without an effective view, assume warm caches (steady state).
        if ctx.effective_cache_mb is None:
            self.eff = self.datasets.d
        else:
            self.eff = [float(ctx.effective_cache_mb(j)) for j in jobs]
        self.cache_budget_mb = total.cache_mb
        self.gpu_cap = total.gpus * (1.0 + _EPS)
        self.io_cap = total.remote_io_mbps * (1.0 + _EPS)
        self.pools = [
            (capacity * (1.0 + _EPS), members) for capacity, members in pools
        ]

    def _remote_io(
        self, targets: List[float], cache: List[float]
    ) -> List[float]:
        """Per-job IO at the targets: ``target * miss_ratio``, with
        ``miss_ratio = 1 - min(1, min(grant, effective) / d)``."""
        io = []
        for t, k, eff, d in zip(
            targets, self.datasets.index, self.eff, self.datasets.d
        ):
            hits = cache[k]
            if eff < hits:
                hits = eff
            hit_ratio = hits / d
            io.append(t * (1.0 - (hit_ratio if hit_ratio < 1.0 else 1.0)))
        return io

    def _feasible(self, targets: List[float]) -> bool:
        """Whether every job can reach its target: each within its
        ``f*`` cap, GPU demand ``sum_j (T_j / f*_j) g_j`` within the
        total and within each generation pool, and the remote IO left
        by the cache plan within the egress budget.

        Frozen jobs are checked against their cap too, which changes
        nothing: a frozen target is ``f*``, below ``f* * (1 + eps)``.
        Slack handed out after the targets are met draws on the shared
        GPU total only (it raises throughputs, never the binding
        minimum).
        """
        for t, cap in zip(targets, self.f_cap):
            if t > cap:
                return False
        f_star, gpus = self.f_star, self.gpus
        demand = [t / f * g for t, f, g in zip(targets, f_star, gpus)]
        if _pairwise_sum(demand) > self.gpu_cap:
            return False
        for cap, members in self.pools:
            if _pairwise_sum([demand[j] for j in members]) > cap:
                return False
        cache = self.datasets.cache_plan(targets, self.cache_budget_mb)
        return _pairwise_sum(self._remote_io(targets, cache)) <= self.io_cap

    def _bisect(self, frozen: List[bool], fixed: List[float]) -> float:
        """The largest common ratio the active jobs reach, frozen jobs
        held at ``fixed``."""
        perf_eq = self.perf_eq
        if any(frozen):
            def targets(ratio: float) -> List[float]:
                return [
                    t if fr else ratio * pe
                    for t, fr, pe in zip(fixed, frozen, perf_eq)
                ]
        else:
            def targets(ratio: float) -> List[float]:
                return [ratio * pe for pe in perf_eq]
        hi = min(
            f / pe
            for f, pe, fr in zip(self.f_star, perf_eq, frozen)
            if not fr
        )
        if self._feasible(targets(hi)):
            return hi
        lo = 0.0
        for _ in range(_ITERS):
            mid = (lo + hi) / 2.0
            if self._feasible(targets(mid)):
                lo = mid
            else:
                hi = mid
        return lo

    def solve(self) -> _JointSolution:
        f_star, perf_eq = self.f_star, self.perf_eq
        n = len(f_star)
        frozen = [False] * n
        targets = [0.0] * n
        while not all(frozen):
            ratio = self._bisect(frozen, targets)
            capped = [
                i
                for i in range(n)
                if not frozen[i]
                and ratio * perf_eq[i] >= f_star[i] * (1.0 - 1e-6)
            ]
            for i in capped:
                targets[i] = f_star[i]
                frozen[i] = True
            if not capped:
                for i in range(n):
                    if not frozen[i]:
                        targets[i] = ratio * perf_eq[i]
                break
        cache = self.datasets.cache_plan(targets, self.cache_budget_mb)
        io = self._remote_io(targets, cache)
        return _JointSolution(
            ds_names=self.datasets.names,
            cache_mb=cache,
            targets=targets,
            gpus=[
                min(1.0, t / f) * g
                for t, f, g in zip(targets, f_star, self.gpus)
            ],
            remote_io_mbps=io,
            used_io_mbps=_pairwise_sum(io),
        )


class GavelPolicy(SchedulingPolicy):
    """Max-min fairness over (GPU share, cache, remote IO)."""

    name = "gavel"

    #: The round's per-generation GPU pools as ``(capacity, member job
    #: indices)``, checked by the joint solver; empty on a homogeneous
    #: fleet. Heterogeneity-aware subclasses set it around a round.
    _pool_members: Sequence[Tuple[int, List[int]]] = ()

    def schedule(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Allocation:
        allocation = Allocation()
        if not jobs:
            return allocation
        shares = self._normalisers(jobs, total, ctx)
        if ctx.storage_aware:
            self._schedule_joint(jobs, total, ctx, shares, allocation)
        else:
            self._schedule_compute_only(jobs, total, shares, allocation, ctx)
        return allocation

    def _normalisers(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, EqualShare]:
        """Per-job normalisation of the max-min objective.

        Gavel's default normalises by the equal-division performance
        (Eq 8), scaled by the job's fair-share weight (a weight-2 job is
        entitled to twice the equal share). Subclasses substitute other
        normalisers to express other Gavel objectives (e.g. finish-time
        fairness normalises by the job's exclusive-run performance).
        """
        shares = {}
        for job in jobs:
            share = equal_share(
                job, len(jobs), total, ctx.estimator, ctx.storage_aware
            )
            # Scaling by weight 1.0 is the identity, so the weighted
            # share is built unconditionally (no float-equality test).
            shares[job.job_id] = EqualShare(
                gpus=share.gpus,
                cache_mb=share.cache_mb,
                remote_io_mbps=share.remote_io_mbps,
                perf_mbps=share.perf_mbps * job.weight,
            )
        return shares

    # ------------------------------------------------------------------
    # Vanilla Gavel: GPUs only.
    # ------------------------------------------------------------------

    def _schedule_compute_only(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        shares: Dict[str, EqualShare],
        allocation: Allocation,
        ctx: ScheduleContext,
    ) -> None:
        """Progressive filling of GPU shares; ratio is x_j / x_eq_j."""
        active = list(jobs)
        grants: Dict[str, float] = {job.job_id: 0.0 for job in jobs}
        free_gpus = total.gpus
        while active and free_gpus > 1e-9:
            denom = sum(shares[j.job_id].gpus for j in active)
            if denom <= 0:
                break
            headroom = min(
                (j.num_gpus - grants[j.job_id]) / shares[j.job_id].gpus
                for j in active
            )
            step = min(headroom, free_gpus / denom)
            for job in active:
                grants[job.job_id] += step * shares[job.job_id].gpus
            free_gpus -= step * denom
            saturated = [
                j for j in active if grants[j.job_id] >= j.num_gpus - 1e-9
            ]
            if not saturated:
                break
            active = [j for j in active if j not in saturated]
        for job_id, gpus in grants.items():
            allocation.grant_gpus(job_id, gpus)
            ctx.job_scores[job_id] = gpus

    # ------------------------------------------------------------------
    # SiloD-Gavel: joint GPU + cache + IO max-min (Eq 9).
    # ------------------------------------------------------------------

    def _schedule_joint(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
        shares: Dict[str, EqualShare],
        allocation: Allocation,
    ) -> None:
        solution = _JointRound(
            jobs, shares, ctx, total, self._pool_members
        ).solve()
        for job, target in zip(jobs, solution.targets):
            ctx.job_scores[job.job_id] = target
        for name, grant in zip(solution.ds_names, solution.cache_mb):
            if grant > 0:
                allocation.grant_cache(name, grant)
        for job, gpus, io in zip(
            jobs, solution.gpus, solution.remote_io_mbps
        ):
            allocation.grant_gpus(job.job_id, gpus)
            allocation.grant_remote_io(job.job_id, io)
        self._distribute_slack(
            jobs, total, allocation, ctx, solution.used_io_mbps
        )

    def _distribute_slack(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        allocation: Allocation,
        ctx: ScheduleContext,
        used_io: float,
    ) -> None:
        """Hand leftover GPUs/IO to jobs in ascending-throughput order.

        After the max-min targets are met, GPU or IO slack can remain (e.g.
        when cache fully covers a dataset). Filling it raises utilisation
        without lowering anyone's ratio. Extra GPUs go only as far as a
        job's storage can feed them — over-feeding IO-bound jobs is the
        GPU-underutilisation failure the paper pins on vanilla Gavel.
        """
        estimator = ctx.estimator
        free_gpus = total.gpus - sum(allocation.gpus.values())
        free_io = total.remote_io_mbps - used_io
        if free_gpus <= 1e-9 and free_io <= 1e-9:
            return
        by_throughput = sorted(
            jobs,
            key=lambda j: estimator.estimate(
                j,
                allocation.gpus_of(j.job_id),
                allocation.cache_of(j.dataset.name),
                allocation.remote_io_of(j.job_id),
            ),
        )
        for job in by_throughput:
            # Extra IO first: it raises what the job can load.
            f_star_full = estimator.compute_bound(job, job.num_gpus)
            hits_mb = ctx.effective_hits_mb(
                job, allocation.cache_of(job.dataset.name)
            )
            demand = perf_model.remote_io_demand(
                f_star_full, hits_mb, job.dataset.size_mb
            )
            io_now = allocation.remote_io_of(job.job_id)
            extra_io = min(free_io, max(0.0, demand - io_now))
            if extra_io > 1e-9:
                io_now += extra_io
                allocation.grant_remote_io(job.job_id, io_now)
                free_io -= extra_io
            # Then GPUs, but only as far as storage can feed them.
            achievable = perf_model.silod_perf(
                f_star_full, io_now, hits_mb, job.dataset.size_mb
            )
            fraction = (
                min(1.0, achievable / f_star_full) if f_star_full > 0 else 0.0
            )
            gpus_now = allocation.gpus_of(job.job_id)
            extra_gpus = min(
                free_gpus, max(0.0, fraction * job.num_gpus - gpus_now)
            )
            if extra_gpus > 1e-9:
                allocation.grant_gpus(job.job_id, gpus_now + extra_gpus)
                free_gpus -= extra_gpus
            if free_gpus <= 1e-9 and free_io <= 1e-9:
                break


def fairness_ratio(
    jobs: Sequence[Job],
    throughputs: Dict[str, float],
    total: ResourceVector,
    estimator: SiloDPerfEstimator,
    storage_aware: bool = True,
    num_jobs: int = None,
) -> float:
    """Eq 8's objective value: ``min_j perf_j / perf_j(R_equal)``.

    Used by the simulators to report Figure 13's fairness-ratio timeline
    for any scheduler/cache combination: each job's achieved throughput is
    compared with what it would get under an equal division of all
    resources (with uniform caching — the reference is system-independent).

    The simulators evaluate the min over jobs past their first epoch (the
    delayed-effectiveness warmup is a bounded transient every system pays
    identically; §6 measures >91% of cached data effective) while still
    dividing ``R_equal`` by the full running-job count — pass that count
    as ``num_jobs``.
    """
    if not jobs:
        return float("nan")
    n = num_jobs if num_jobs is not None else len(jobs)
    ratios = []
    for job in jobs:
        share = equal_share(job, n, total, estimator, storage_aware)
        if share.perf_mbps <= 0:
            continue
        ratios.append(throughputs.get(job.job_id, 0.0) / share.perf_mbps)
    return min(ratios) if ratios else float("nan")
