"""Exactness of het-max-min's per-round assignment scorer.

``HetMaxMinPolicy`` scores candidate generation assignments with a
per-round :class:`~repro.core.policies.het._AssignmentScorer` that
memoises the cache/IO half of feasibility per ratio, skips candidates
whose upper bound cannot beat the best ratio so far, and, on the greedy
path, scores the chosen assignment only when ``last_assignment_ratio``
is first read. None of that may change a result: the chosen assignment
and its ratio must equal (``==``) an unpruned search scored by a direct,
unmemoised bisection.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator
from repro.core.perf_model import default_speedup_table
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import _EPS, _ITERS, equal_share
from repro.core.policies.het import (
    _ENUM_LIMIT,
    HetMaxMinPolicy,
    _AssignmentScorer,
    _greedy_cache_plan,
    common_ratio_for_assignment,
)
from repro.core.resources import ResourceVector

POOLS = ("K80", "P100", "V100")


def _estimator():
    return HetSiloDPerfEstimator(speedups=default_speedup_table())


def _normalisers(jobs, total):
    """The assignment-independent normalisers the policy scores with."""
    estimator = _estimator()
    return {
        job.job_id: max(
            equal_share(job, len(jobs), total, estimator, True).perf_mbps
            * job.weight,
            1e-12,
        )
        for job in jobs
    }


def _direct_ratio(jobs, generations, pools, total, f_star_by_gen, norms, eff):
    """Common ratio of one assignment by a plain bisection: every
    feasibility check recomputes its cache plan, nothing is memoised."""
    f_star = [by_gen[gen] for by_gen, gen in zip(f_star_by_gen, generations)]

    def feasible(ratio):
        targets = [ratio * norm for norm in norms]
        if any(t > f * (1.0 + _EPS) for t, f in zip(targets, f_star)):
            return False
        for pool, capacity in pools.items():
            demand = 0.0
            for j, gen in enumerate(generations):
                if gen == pool and f_star[j] > 0:
                    demand += targets[j] / f_star[j] * jobs[j].num_gpus
            if demand > capacity * (1.0 + _EPS):
                return False
        cache = _greedy_cache_plan(jobs, targets, total.cache_mb)
        total_io = 0.0
        for job, target, visible in zip(jobs, targets, eff):
            hits = min(cache[job.dataset.name], visible)
            total_io += target * (1.0 - min(1.0, hits / job.dataset.size_mb))
        return total_io <= total.remote_io_mbps * (1.0 + _EPS)

    hi = min(f / max(norm, 1e-12) for f, norm in zip(f_star, norms))
    if feasible(hi):
        return hi
    lo = 0.0
    for _ in range(_ITERS):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _make_jobs(specs, picks, jitter=None):
    """Jobs from ``specs`` chosen by ``picks``: a repeated pick is a
    duplicate job (same model, GPUs, rate and dataset), forcing ties.
    A job's fair-share weight is ``1 + jitter[i]``: the normaliser
    scales with it (a rate would cancel out of ``f*/normaliser``), so
    near-duplicates make candidates that improve on each other by a
    hair."""
    jitter = jitter or [0.0] * len(picks)
    return [
        Job(
            job_id=f"job-{i}",
            model="resnet50",
            dataset=Dataset(name=f"d-{k}", size_mb=specs[k][2], num_items=100),
            num_gpus=specs[k][0],
            ideal_throughput_mbps=specs[k][1],
            total_work_mb=4 * specs[k][2],
            weight=1.0 + jitter[i],
        )
        for i, k in enumerate(picks)
    ]


job_spec = st.tuples(
    st.integers(min_value=1, max_value=3),  # num_gpus
    st.floats(min_value=20.0, max_value=400.0),  # ideal_throughput_mbps
    st.floats(min_value=512.0, max_value=8192.0),  # dataset size_mb
)
fleet = st.fixed_dictionaries(
    {gen: st.integers(min_value=1, max_value=4) for gen in POOLS}
)


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(job_spec, min_size=1, max_size=3),
    picks=st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                   max_size=5),
    pools=fleet,
    cache_mb=st.floats(min_value=0.0, max_value=16384.0),
    io_mbps=st.floats(min_value=20.0, max_value=2000.0),
    visible=st.floats(min_value=0.0, max_value=1.0),
    jitter=st.lists(st.sampled_from([0.0, 1e-6, 1e-3]), min_size=5,
                    max_size=5),
)
def test_pruned_search_matches_unpruned_reference(
    specs, picks, pools, cache_mb, io_mbps, visible, jitter
):
    jobs = _make_jobs(specs, [k % len(specs) for k in picks], jitter)
    total = ResourceVector(
        gpus=float(sum(pools.values())),
        cache_mb=cache_mb,
        remote_io_mbps=io_mbps,
    )
    eff = [visible * job.dataset.size_mb for job in jobs]
    by_id = dict(zip((job.job_id for job in jobs), eff))
    ctx = ScheduleContext(
        estimator=_estimator(),
        storage_aware=True,
        gpu_pools=pools,
        effective_cache_mb=lambda job: by_id[job.job_id],
    )
    policy = HetMaxMinPolicy()
    policy.schedule(jobs, total, ctx)

    norms_by_id = _normalisers(jobs, total)
    norms = [norms_by_id[job.job_id] for job in jobs]
    oracle = _estimator()
    f_star_by_gen = [oracle.f_star_by_generation(job) for job in jobs]
    scorer = _AssignmentScorer(
        jobs, pools, total, oracle, norms_by_id,
        lambda job: by_id[job.job_id],
    )
    best, best_ratio = None, -1.0
    for candidate in itertools.product(sorted(pools), repeat=len(jobs)):
        ratio = _direct_ratio(
            jobs, candidate, pools, total, f_star_by_gen, norms, eff
        )
        assignment = dict(zip((job.job_id for job in jobs), candidate))
        assert ratio == common_ratio_for_assignment(
            jobs, assignment, pools, total, oracle, norms_by_id,
            lambda job: by_id[job.job_id],
        )
        # The lemma pruning rests on: no score exceeds its bound.
        assert ratio <= scorer.bound(candidate)
        if ratio > best_ratio * (1.0 + _EPS) + 1e-15:
            best, best_ratio = candidate, ratio

    chosen = tuple(ctx.gen_assignments[job.job_id] for job in jobs)
    assert chosen == best
    assert policy.last_assignment_ratio == best_ratio


@settings(max_examples=20, deadline=None)
@given(
    specs=st.lists(job_spec, min_size=6, max_size=9),
    pools=fleet,
    cache_mb=st.floats(min_value=0.0, max_value=16384.0),
    io_mbps=st.floats(min_value=20.0, max_value=500.0),
)
def test_greedy_round_defers_ratio_over_snapshotted_inputs(
    specs, pools, cache_mb, io_mbps
):
    jobs = _make_jobs(specs, range(len(specs)))
    assert len(POOLS) ** len(jobs) > _ENUM_LIMIT  # the greedy path
    total = ResourceVector(
        gpus=float(sum(pools.values())),
        cache_mb=cache_mb,
        remote_io_mbps=io_mbps,
    )
    live = {job.job_id: job.dataset.size_mb / 2 for job in jobs}
    at_schedule = dict(live)
    estimator = _estimator()
    ctx = ScheduleContext(
        estimator=estimator,
        storage_aware=True,
        gpu_pools=pools,
        effective_cache_mb=lambda job: live[job.job_id],
    )
    policy = HetMaxMinPolicy()
    policy.schedule(jobs, total, ctx)
    published = dict(ctx.gen_assignments)

    # The run moves on: caches drain, the fleet shrinks, the estimator
    # is reassigned. None of it may reach the deferred diagnostic.
    for job_id in live:
        live[job_id] = 0.0
    estimator.assignments.clear()
    ctx.gpu_pools = {gen: 1 for gen in pools}

    expected = common_ratio_for_assignment(
        jobs, published, pools, total, _estimator(),
        _normalisers(jobs, total), lambda job: at_schedule[job.job_id],
    )
    assert policy.last_assignment_ratio == expected
    assert policy.last_assignment_ratio == expected  # cached on first read
