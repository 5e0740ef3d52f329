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

The joint solver is vectorised with numpy: it runs on every scheduling
round of cluster-scale simulations, where the active job set reaches
hundreds of jobs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies.base import ScheduleContext, SchedulingPolicy
from repro.core.resources import Allocation, ResourceVector

#: Bisection iterations (relative precision ~1e-9 on the ratio).
_ITERS = 40
_EPS = 1e-9


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


class _JointArrays:
    """Vectorised view of the job set used by the joint solver."""

    def __init__(
        self,
        jobs: Sequence[Job],
        shares: Dict[str, EqualShare],
        ctx: ScheduleContext,
    ) -> None:
        estimator = ctx.estimator
        self.jobs = list(jobs)
        n = len(self.jobs)
        self.f_star = np.array(
            [estimator.compute_bound(j, j.num_gpus) for j in self.jobs]
        )
        self.perf_eq = np.array(
            [max(shares[j.job_id].perf_mbps, 1e-12) for j in self.jobs]
        )
        self.gpus = np.array([float(j.num_gpus) for j in self.jobs])
        self.d = np.array([j.dataset.size_mb for j in self.jobs])
        # Effective cached bytes visible right now (§6): the IO cost of a
        # target must be paid against hits the job can actually take.
        # Without an effective view, assume warm caches (steady state).
        if ctx.effective_cache_mb is None:
            self.eff = self.d.copy()
        else:
            self.eff = np.array(
                [ctx.effective_cache_mb(j) for j in self.jobs]
            )
        names: List[str] = []
        index: Dict[str, int] = {}
        self.ds_index = np.empty(n, dtype=np.intp)
        ds_sizes: List[float] = []
        for i, job in enumerate(self.jobs):
            name = job.dataset.name
            if name not in index:
                index[name] = len(names)
                names.append(name)
                ds_sizes.append(job.dataset.size_mb)
            self.ds_index[i] = index[name]
        self.ds_names = names
        self.ds_size = np.array(ds_sizes)

    def cache_plan_with_budget(
        self, targets: np.ndarray, budget_mb: float
    ) -> np.ndarray:
        """IO-minimising cache grant per dataset for the given targets.

        Greedy by marginal saving ``sum_{j on D} T_j / d_D``, vectorised
        via argsort + cumulative sums over the dataset sizes.
        """
        saving = np.bincount(
            self.ds_index, weights=targets / self.d,
            minlength=len(self.ds_size),
        )
        order = np.argsort(-saving, kind="stable")
        sizes = self.ds_size[order]
        before = np.concatenate(([0.0], np.cumsum(sizes)[:-1]))
        grants_sorted = np.clip(budget_mb - before, 0.0, sizes)
        grants = np.empty_like(grants_sorted)
        grants[order] = grants_sorted
        return grants

    def miss_ratios(self, cache_grants: np.ndarray) -> np.ndarray:
        """Per-job instantaneous miss ratios under a cache plan.

        Hits are limited to the *effective* slice of the plan:
        ``min(grant, effective) / d``.
        """
        hits = np.minimum(cache_grants[self.ds_index], self.eff)
        return 1.0 - np.minimum(1.0, hits / self.d)

    def total_remote_io(
        self, targets: np.ndarray, cache_grants: np.ndarray
    ) -> float:
        """Total remote IO demand at the targets under a cache plan."""
        return float(np.sum(targets * self.miss_ratios(cache_grants)))


class GavelPolicy(SchedulingPolicy):
    """Max-min fairness over (GPU share, cache, remote IO)."""

    name = "gavel"

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
        arrays = _JointArrays(jobs, shares, ctx)
        n = len(arrays.jobs)
        frozen = np.zeros(n, dtype=bool)
        targets = np.zeros(n)

        while not frozen.all():
            active = ~frozen
            ratio = self._bisect_ratio(arrays, frozen, targets, total)
            proposed = ratio * arrays.perf_eq
            capped = active & (
                proposed >= arrays.f_star * (1.0 - 1e-6)
            )
            if capped.any():
                targets[capped] = arrays.f_star[capped]
                frozen |= capped
                continue
            targets[active] = proposed[active]
            frozen[:] = True

        for i, job in enumerate(arrays.jobs):
            ctx.job_scores[job.job_id] = float(targets[i])

        cache_grants = arrays.cache_plan_with_budget(targets, total.cache_mb)
        for k, name in enumerate(arrays.ds_names):
            if cache_grants[k] > 0:
                allocation.grant_cache(name, float(cache_grants[k]))
        io_grants = targets * arrays.miss_ratios(cache_grants)
        used_io = float(np.sum(io_grants))
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(
                arrays.f_star > 0,
                np.minimum(1.0, targets / arrays.f_star),
                0.0,
            )
        for i, job in enumerate(arrays.jobs):
            allocation.grant_gpus(job.job_id, float(fractions[i] * arrays.gpus[i]))
            allocation.grant_remote_io(job.job_id, float(io_grants[i]))
        self._distribute_slack(jobs, total, allocation, ctx, used_io)

    def _feasible(
        self,
        ratio: float,
        arrays: _JointArrays,
        frozen: np.ndarray,
        frozen_targets: np.ndarray,
        total: ResourceVector,
    ) -> bool:
        """Whether active jobs can all reach ``ratio`` x equal share."""
        targets = np.where(
            frozen, frozen_targets, ratio * arrays.perf_eq
        )
        active = ~frozen
        if np.any(
            targets[active] > arrays.f_star[active] * (1.0 + _EPS)
        ):
            return False
        gpu_needed = float(
            np.sum(targets / arrays.f_star * arrays.gpus)
        )
        if gpu_needed > total.gpus * (1.0 + _EPS):
            return False
        cache_grants = arrays.cache_plan_with_budget(
            targets, total.cache_mb
        )
        return (
            arrays.total_remote_io(targets, cache_grants)
            <= total.remote_io_mbps * (1.0 + _EPS)
        )

    def _bisect_ratio(
        self,
        arrays: _JointArrays,
        frozen: np.ndarray,
        frozen_targets: np.ndarray,
        total: ResourceVector,
    ) -> float:
        """Largest common ratio every active job can reach."""
        active = ~frozen
        hi = float(
            np.min(arrays.f_star[active] / arrays.perf_eq[active])
        )
        if self._feasible(hi, arrays, frozen, frozen_targets, total):
            return hi
        lo = 0.0
        for _ in range(_ITERS):
            mid = (lo + hi) / 2.0
            if self._feasible(mid, arrays, frozen, frozen_targets, total):
                lo = mid
            else:
                hi = mid
        return lo

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
