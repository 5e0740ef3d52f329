"""Gavel max-min fairness (§5.2, Eq 8-9).

Gavel maximises the minimum, over jobs, of the job's throughput relative to
what it would get under an **equal division** of the cluster
(``R_equal``). Vanilla Gavel sees only compute, so it reduces to
proportional GPU time-sharing; SiloD-Gavel replaces ``perf`` with SiloDPerf
and adds cache and remote IO as allocation dimensions (Eq 9).

SiloDPerf is quasi-concave in the allocation — the super-level set
"throughput >= T" is ``{x >= T/f*} ∩ {b >= T (1 - c/d)}``, an intersection
of half-spaces — so the max-min programme has an exact answer at a
common ratio ``r``, where an active job targets ``r * norm_j`` and a
frozen job its fixed target (:meth:`Programme.feasible` is the one test):

* GPU feasibility is linear: ``sum_j (T_j / f*_j) g_j <= G``, and so is
  each generation pool's. With the ``f*`` caps this gives ``r`` in
  closed form: ``(cap - frozen GPUs) / sum_active norm * g / f*``.
* Storage feasibility is a one-dimensional greedy: to minimise total
  remote IO subject to the cache budget, give cache to the datasets with
  the highest marginal saving ``sum_{j on D} T_j / d_D`` (cache efficiency
  evaluated at the targets), then check ``sum_j b_j <= B``. A saving is
  the line ``a_D + r * b_D`` (frozen jobs give ``a``), so between two
  crossings the plan is fixed and IO is ``A + B * r``;
  :meth:`Programme.io_limit` walks those segments down from the top,
  taking a new plan only where a crossing moves a grant.

Gavel (Narayanan et al., OSDI 2020) states this programme as an LP; no
search runs here. Sums are ``math.fsum``, correctly rounded and so the
same float on every CPython (``sum()`` became compensated in 3.12). The
closed form then steps down one float at a time while the predicate
rejects it (at most :data:`_STEPS` times, then ``RuntimeError``), and up
to the cap bound while the next float passes.

Lexicographic (progressive-filling) max-min: jobs whose ``f*`` cap binds at
the current ratio are frozen at ``f*`` and the ratio keeps rising for the
rest; when a shared resource binds, the loop ends and remaining slack is
handed out in a final filling pass.

The joint solver (:class:`_JointRound`) runs on every scheduling round,
and het-max-min's assignment scorer calls the same
:meth:`Programme.common_ratio`. Every job's ``f*`` must be positive: a
compute estimator that returns ``0`` for some job is an error, not a job
that needs no GPUs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies.base import ScheduleContext, SchedulingPolicy
from repro.core.resources import Allocation, ResourceVector

#: Relative slack on every budget and ``f*`` cap.
_EPS = 1e-9
#: Floats the confirmation may step from the closed form.
_STEPS = 64

#: ``(GPU capacity, member job indices)`` of one pool.
Pool = Tuple[float, Sequence[int]]
#: Per job: its fixed target if frozen, ``None`` if active.
Fixed = Sequence[Optional[float]]


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

    def savings(self, targets: Sequence[float]) -> List[float]:
        """Each dataset's marginal saving ``sum_{j on D} T_j / d_D``,
        accumulated in job order from ``0.0``."""
        if self.private:
            return [t / size for t, size in zip(targets, self.d)]
        saving = [0.0] * len(self.names)
        for k, t, size in zip(self.index, targets, self.d):
            saving[k] += t / size
        return saving

    def cache_plan(
        self, targets: Sequence[float], budget_mb: float
    ) -> List[float]:
        """IO-minimising cache grant per dataset for the given targets.

        Greedy by :meth:`savings`: datasets rank by a stable sort on the
        negated saving, and the budget is spent against a running prefix
        sum clipped to ``[0, size]``.
        """
        neg = [-x for x in self.savings(targets)]
        grants = [0.0] * len(neg)
        before = 0.0
        # ``min(a, b)`` / ``max(a, b)`` are written ``b if b < a else a`` /
        # ``b if b > a else a`` here: the builtins' own test, with no call.
        for k in sorted(range(len(neg)), key=neg.__getitem__):
            left = budget_mb - before
            left = 0.0 if 0.0 > left else left
            size = self.size[k]
            grants[k] = size if size < left else left
            before += size
        return grants


class Programme:
    """One round's jobs, normalisers, effective cache and budgets.

    ``f*`` and the pools are per call, because het-max-min scores many
    generation assignments against one programme. The effective cache
    (§6) is read once, here: the IO cost of a target is paid against hits
    the job can take now. Without an effective view caches are warm.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        norms: Sequence[float],
        effective_cache_mb: Optional[Mapping[str, float]],
        cache_mb: float,
        remote_io_mbps: float,
    ) -> None:
        self.jobs = tuple(jobs)
        self.norms = list(norms)
        self.gpus = [float(job.num_gpus) for job in self.jobs]
        self.datasets = _Datasets(self.jobs)
        self.eff = self.datasets.d
        if effective_cache_mb is not None:
            self.eff = [
                float(effective_cache_mb.get(job.job_id, 0.0))
                for job in self.jobs
            ]
        self.cache_mb = cache_mb
        self.io_cap = remote_io_mbps * (1.0 + _EPS)

    def targets(self, ratio: float, fixed: Fixed) -> List[float]:
        """Each job's target at ``ratio``."""
        return [
            ratio * norm if t is None else t
            for t, norm in zip(fixed, self.norms)
        ]

    def remote_io(
        self, targets: Sequence[float], cache: Sequence[float]
    ) -> List[float]:
        """Each job's remote IO under a cache plan:
        ``t * (1 - min(1, min(grant, effective) / d))``."""
        ds = self.datasets
        io = []
        for t, k, eff, d in zip(targets, ds.index, self.eff, ds.d):
            grant = cache[k]
            hit = (eff if eff < grant else grant) / d
            io.append(t * (1.0 - (hit if hit < 1.0 else 1.0)))
        return io

    def feasible(
        self,
        targets: Sequence[float],
        f_star: Sequence[float],
        pools: Sequence[Pool],
    ) -> bool:
        """Whether every job can reach its target: the one predicate."""
        if any(t > f * (1.0 + _EPS) for t, f in zip(targets, f_star)):
            return False
        demand = [t / f * g for t, f, g in zip(targets, f_star, self.gpus)]
        for capacity, members in pools:
            used = math.fsum([demand[j] for j in members])
            if used > capacity * (1.0 + _EPS):
                return False
        cache = self.datasets.cache_plan(targets, self.cache_mb)
        return math.fsum(self.remote_io(targets, cache)) <= self.io_cap

    def cap_limit(self, f_star: Sequence[float], fixed: Fixed = ()) -> float:
        """``hi``: the ratio at which the first active job reaches its
        ``f*`` cap; :meth:`common_ratio` never returns more."""
        hi = math.inf
        fixed = fixed or [None] * len(f_star)
        for job, f, norm, t in zip(self.jobs, f_star, self.norms, fixed):
            if t is None:
                if not f > 0.0:
                    raise ValueError(
                        f"job {job.job_id}: the compute estimator gave "
                        f"f* = {f!r}; the joint solver needs f* > 0"
                    )
                cap = f * (1.0 + _EPS) / norm
                hi = cap if cap < hi else hi
        return hi

    def io_limit(self, top: float, fixed: Fixed = ()) -> float:
        """The largest ``r <= top`` whose remote IO fits the budget
        (``0.0`` if none does).

        The walk goes down from ``top`` to the next crossing that moves a
        grant: swapping two datasets granted in full, or two granted
        nothing, changes no grant. Below it the plan is taken midway to
        the next crossing of any two lines.
        """
        ds, norms = self.datasets, self.norms
        fixed = fixed or [None] * len(norms)

        def line(r: float) -> Tuple[float, float, List[int]]:
            """``A``, ``B`` and each dataset's tier (0 none, 1 part,
            2 full) of the plan at ``r``."""
            targets = self.targets(r, fixed)
            cache = ds.cache_plan(targets, self.cache_mb)
            held = self.remote_io(targets, cache)
            unit = self.remote_io(norms, cache)
            return (
                math.fsum(x for x, t in zip(held, fixed) if t is not None),
                math.fsum(x for x, t in zip(unit, fixed) if t is None),
                [(g > 0.0) + (g >= d) for g, d in zip(cache, ds.size)],
            )

        # Each dataset's saving is ``a + r * b``.
        active = [n if t is None else 0.0 for n, t in zip(norms, fixed)]
        lines = list(zip(
            ds.savings(self.targets(0.0, fixed)), ds.savings(active)
        ))

        def crossings(below: float, moving: bool) -> Iterator[float]:
            """Crossings in ``(0, below)``; if ``moving``, only those of
            datasets in different tiers. Lines through the origin cross
            only there, so a frozen job's saving is on one side."""
            # Per tier, the datasets in the other two.
            apart = [
                [j for j, u in enumerate(tier) if u != t] for t in range(3)
            ]
            for k, (a_k, b_k) in enumerate(lines):
                if a_k > 0.0:
                    for l in apart[tier[k]] if moving else range(len(lines)):
                        a_l, b_l = lines[l]
                        if b_l != b_k:
                            x = (a_l - a_k) / (b_k - b_l)
                            if 0.0 < x < below:
                                yield x

        ceiling = top
        a_io, b_io, tier = line(top)
        while a_io + b_io * ceiling > self.io_cap:
            x = max(crossings(ceiling, True), default=0.0)
            if a_io + b_io * x <= self.io_cap:
                return (self.io_cap - a_io) / b_io
            if x <= 0.0:
                return 0.0
            below = max(crossings(x, False), default=0.0)
            a_io, b_io, tier = line((x + below) / 2.0)
            ceiling = x
        return ceiling

    def common_ratio(
        self,
        f_star: Sequence[float],
        pools: Sequence[Pool],
        fixed: Fixed = (),
        io_limit: Optional[float] = None,
    ) -> float:
        """The largest common ratio the active jobs reach (``0.0`` if no
        positive one is feasible). A caller that knows :meth:`io_limit`
        for every ``top`` passes it as ``io_limit``."""
        fixed = fixed or [None] * len(f_star)
        hi = top = self.cap_limit(f_star, fixed)
        slope = [
            norm / f * g if t is None else 0.0
            for f, norm, g, t in zip(f_star, self.norms, self.gpus, fixed)
        ]
        for capacity, members in pools:
            per_unit = math.fsum([slope[j] for j in members])
            if per_unit > 0.0:
                held = math.fsum([
                    fixed[j] / f_star[j] * self.gpus[j]
                    for j in members if fixed[j] is not None
                ])
                limit = (capacity * (1.0 + _EPS) - held) / per_unit
                top = limit if limit < top else top

        def accepts(r: float) -> bool:
            return self.feasible(self.targets(r, fixed), f_star, pools)

        # When the linear limit fits, no IO walk is needed.
        ratio = io_limit if io_limit is not None and io_limit < top else top
        if ratio > 0.0 and not accepts(ratio):
            if io_limit is None:
                ratio = self.io_limit(top, fixed)
            for _ in range(_STEPS):
                if ratio <= 0.0 or accepts(ratio):
                    break
                ratio = math.nextafter(ratio, 0.0)
            else:
                raise RuntimeError(
                    f"no feasible ratio within {_STEPS} floats of {ratio!r}"
                )
        if ratio <= 0.0:
            return 0.0
        for _ in range(_STEPS):
            up = math.nextafter(ratio, hi)
            if ratio >= hi or not accepts(up):
                break
            ratio = up
        return ratio


@dataclasses.dataclass(frozen=True)
class EqualShare:
    """A job's slice of ``R_equal`` and its performance under it."""

    gpus: float
    cache_mb: float
    remote_io_mbps: float
    perf_mbps: float


def equal_division(
    job: Job, num_jobs: int, total: ResourceVector
) -> Tuple[float, float, float]:
    """The job's ``(GPUs, cache MB, remote IO MB/s)`` slice of the
    cluster divided evenly among ``num_jobs`` jobs: the GPU share capped
    at its request, the cache share at its dataset size."""
    if num_jobs < 1:
        raise ValueError("need at least one job")
    gpus, size_mb = job.num_gpus, job.dataset.size_mb
    share_gpus = total.gpus / num_jobs
    share_mb = total.cache_mb / num_jobs
    return (
        share_gpus if share_gpus < gpus else gpus,
        share_mb if share_mb < size_mb else size_mb,
        total.remote_io_mbps / num_jobs,
    )


def equal_share(
    job: Job,
    num_jobs: int,
    total: ResourceVector,
    estimator: SiloDPerfEstimator,
    storage_aware: bool,
    weight: float = 1.0,
) -> EqualShare:
    """``R_equal``: the cluster divided evenly among ``num_jobs`` jobs
    (:func:`equal_division`), its performance scaled by ``weight``.

    Vanilla Gavel's equal-share performance ignores storage. Scaling by
    the default weight 1.0 is the identity.
    """
    gpus, cache_mb, io_mbps = equal_division(job, num_jobs, total)
    if storage_aware and job.regular:
        perf = estimator.estimate(job, gpus, cache_mb, io_mbps)
    else:
        perf = estimator.compute_bound(job, gpus)
    return EqualShare(gpus, cache_mb, io_mbps, perf * weight)


class _JointRound(Programme):
    """One round of the joint solver: the programme under each job's
    ``f*`` (``compute_bound`` at the full request unless given),
    Gavel's total GPU budget one more pool over every job."""

    def __init__(
        self,
        jobs: Sequence[Job],
        shares: Dict[str, EqualShare],
        ctx: ScheduleContext,
        total: ResourceVector,
        pools: Sequence[Tuple[int, List[int]]],
        f_star: Optional[List[float]] = None,
    ) -> None:
        estimator = ctx.estimator
        self.f_star = f_star if f_star is not None else [
            float(estimator.compute_bound(j, j.num_gpus)) for j in jobs
        ]
        self.perf_eq = [
            float(1e-12 if 1e-12 > perf else perf)
            for perf in (shares[j.job_id].perf_mbps for j in jobs)
        ]
        super().__init__(
            jobs, self.perf_eq, ctx.effective_cache_mb, total.cache_mb,
            total.remote_io_mbps,
        )
        self.pools = [(total.gpus, range(len(jobs)))] + list(pools)

    def solve(self) -> List[float]:
        """Each job's max-min target, by progressive filling."""
        f_star, perf_eq = self.f_star, self.perf_eq
        # Frozen jobs' targets; ``None`` while a job is active.
        fixed: List[Optional[float]] = [None] * len(f_star)
        while None in fixed:
            ratio = self.common_ratio(f_star, self.pools, fixed)
            capped = [
                i
                for i, t in enumerate(fixed)
                if t is None and ratio * perf_eq[i] >= f_star[i] * (1.0 - 1e-6)
            ]
            for i in capped:
                fixed[i] = f_star[i]
            if not capped:
                break
        return self.targets(ratio, fixed)


class GavelPolicy(SchedulingPolicy):
    """Max-min fairness over (GPU share, cache, remote IO)."""

    name = "gavel"
    pure_round = True

    #: The round's per-generation GPU pools as ``(capacity, member job
    #: indices)``, checked by the joint solver; empty on a homogeneous
    #: fleet. Heterogeneity-aware subclasses set it around a round.
    _pool_members: Sequence[Tuple[int, List[int]]] = ()
    #: The round's ``f*`` per job, when a subclass already holds it.
    _f_star: Optional[List[float]] = None

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
        # Scaling by weight 1.0 is the identity, so the weighted share
        # is built unconditionally (no float-equality test).
        return {
            job.job_id: equal_share(
                job, len(jobs), total, ctx.estimator, ctx.storage_aware,
                job.weight,
            )
            for job in jobs
        }

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
            even = free_gpus / denom
            step = even if even < headroom else headroom
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
        solver = _JointRound(
            jobs, shares, ctx, total, self._pool_members, self._f_star
        )
        targets = solver.solve()
        cache = solver.datasets.cache_plan(targets, solver.cache_mb)
        for name, grant in zip(solver.datasets.names, cache):
            if grant > 0:
                allocation.grant_cache(name, grant)
        io = solver.remote_io(targets, cache)
        for job, t, f, job_io in zip(jobs, targets, solver.f_star, io):
            ctx.job_scores[job.job_id] = t
            share = t / f
            share = share if share < 1.0 else 1.0
            allocation.grant_gpus(job.job_id, share * job.num_gpus)
            allocation.grant_remote_io(job.job_id, job_io)
        self._distribute_slack(
            jobs, total, allocation, ctx, math.fsum(io), solver.f_star
        )

    def _distribute_slack(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        allocation: Allocation,
        ctx: ScheduleContext,
        used_io: float,
        f_star: Sequence[float],
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
            zip(jobs, f_star),
            key=lambda pair: estimator.estimate(
                pair[0],
                allocation.gpus_of(pair[0].job_id),
                allocation.cache_of(pair[0].dataset.name),
                allocation.remote_io_of(pair[0].job_id),
            ),
        )
        for job, f_star_full in by_throughput:
            # Extra IO first: it raises what the job can load.
            hits_mb = ctx.effective_hits_mb(
                job, allocation.cache_of(job.dataset.name)
            )
            demand = perf_model.remote_io_demand(
                f_star_full, hits_mb, job.dataset.size_mb
            )
            io_now = allocation.remote_io_of(job.job_id)
            short = demand - io_now
            short = short if short > 0.0 else 0.0
            extra_io = short if short < free_io else free_io
            if extra_io > 1e-9:
                io_now += extra_io
                allocation.grant_remote_io(job.job_id, io_now)
                free_io -= extra_io
            # Then GPUs, but only as far as storage can feed them.
            achievable = perf_model.silod_perf(
                f_star_full, io_now, hits_mb, job.dataset.size_mb
            )
            fraction = achievable / f_star_full if f_star_full > 0 else 0.0
            fraction = fraction if fraction < 1.0 else 1.0
            gpus_now = allocation.gpus_of(job.job_id)
            want = fraction * job.num_gpus - gpus_now
            want = want if want > 0.0 else 0.0
            extra_gpus = want if want < free_gpus else free_gpus
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
