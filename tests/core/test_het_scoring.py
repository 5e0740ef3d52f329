"""Exactness of het-max-min's per-round assignment scorer.

``HetMaxMinPolicy`` scores candidate generation assignments with a
per-round :class:`~repro.core.policies.het._AssignmentScorer` that
solves the IO limit once for the round and tabulates each job's ``f*``
cap per generation. The search walks the candidates depth first and
skips every completion of a prefix whose folded cap cannot beat the
best ratio so far; on the greedy path it builds the scorer and scores
the chosen assignment only when ``last_assignment_ratio`` is first
read. None of that may change a result: the chosen assignment and its
ratio must equal (``==``) an unpruned search scored by unmemoised calls
of the shared closed-form solve, and no score may fall below the
40-step bisection it replaced. Each round computes a job's
per-generation ``f*`` table once and publishes exactly a fresh
estimator's table. A mixed-fleet round's work is pinned as call counts:
no ``equal_share`` (one equal-share row per job serves both normaliser
maps), no ``_AssignmentScorer.bound`` from the search, and as many
candidates scored as the candidate-by-candidate search scored.
"""

import collections
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator, SiloDPerfEstimator
from repro.core.perf_model import default_speedup_table
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import _EPS, Programme, _Datasets, equal_share
from repro.core.policies import gavel, het
from repro.core.policies.het import (
    _ENUM_LIMIT,
    HetMaxMinPolicy,
    HetMaxThroughputPolicy,
    _AssignmentScorer,
    common_ratio_for_assignment,
)
from repro.core.resources import ResourceVector
from tests.core.ratio_oracles import bisect_ratio

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


def _members(generations, pools):
    return [
        (capacity, [j for j, gen in enumerate(generations) if gen == pool])
        for pool, capacity in pools.items()
    ]


def _direct_ratio(jobs, generations, pools, total, f_star_by_gen, norms, eff):
    """Common ratio of one assignment by the 40-step bisection, over a
    predicate written out here: every check recomputes its cache plan."""
    f_star = [by_gen[gen] for by_gen, gen in zip(f_star_by_gen, generations)]

    def feasible(ratio):
        targets = [ratio * norm for norm in norms]
        if any(t > f * (1.0 + _EPS) for t, f in zip(targets, f_star)):
            return False
        for capacity, members in _members(generations, pools):
            demand = math.fsum(
                targets[j] / f_star[j] * jobs[j].num_gpus for j in members
            )
            if demand > capacity * (1.0 + _EPS):
                return False
        datasets = _Datasets(jobs)
        cache = datasets.cache_plan(targets, total.cache_mb)
        total_io = math.fsum(
            t * (1.0 - min(1.0, min(cache[k], visible) / job.dataset.size_mb))
            for job, k, t, visible in zip(jobs, datasets.index, targets, eff)
        )
        return total_io <= total.remote_io_mbps * (1.0 + _EPS)

    hi = min(f * (1.0 + _EPS) / norm for f, norm in zip(f_star, norms))
    return bisect_ratio(feasible, hi)


def _exact_ratio(jobs, generations, pools, total, f_star_by_gen, norms, eff):
    """Common ratio of one assignment by an unmemoised call of the
    shared solve: a fresh programme, its IO limit solved in the call."""
    visible = {job.job_id: e for job, e in zip(jobs, eff)}
    programme = Programme(
        jobs, norms, visible, total.cache_mb,
        total.remote_io_mbps,
    )
    f_star = [by_gen[gen] for by_gen, gen in zip(f_star_by_gen, generations)]
    return programme.common_ratio(f_star, _members(generations, pools))


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
        effective_cache_mb=by_id,
    )
    policy = HetMaxMinPolicy()
    policy.schedule(jobs, total, ctx)

    norms_by_id = _normalisers(jobs, total)
    norms = [norms_by_id[job.job_id] for job in jobs]
    oracle = _estimator()
    f_star_by_gen = [oracle.f_star_by_generation(job) for job in jobs]
    scorer = _AssignmentScorer(
        jobs, pools, total, f_star_by_gen, norms_by_id,
        by_id,
    )
    best, best_ratio = None, -1.0
    for candidate in itertools.product(sorted(pools), repeat=len(jobs)):
        ratio = _exact_ratio(
            jobs, candidate, pools, total, f_star_by_gen, norms, eff
        )
        assert ratio >= _direct_ratio(
            jobs, candidate, pools, total, f_star_by_gen, norms, eff
        )
        assignment = dict(zip((job.job_id for job in jobs), candidate))
        assert ratio == common_ratio_for_assignment(
            jobs, assignment, pools, total, oracle, norms_by_id, by_id,
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
        effective_cache_mb=live,
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
        _normalisers(jobs, total), at_schedule,
    )
    assert policy.last_assignment_ratio == expected
    assert policy.last_assignment_ratio == expected  # cached on first read


#: Six jobs on three pools: ``3 ** 6`` candidates, the greedy path.
GREEDY_SPECS = [
    (1, 120.0, 2048.0),
    (2, 300.0, 4096.0),
    (3, 80.0, 1024.0),
    (1, 220.0, 6144.0),
    (2, 60.0, 3072.0),
    (3, 350.0, 512.0),
]
FLEET = {"K80": 2, "P100": 3, "V100": 2}


def _round(n_jobs, policy_cls=HetMaxMinPolicy, estimator=None):
    jobs = _make_jobs(GREEDY_SPECS, range(n_jobs))
    total = ResourceVector(
        gpus=float(sum(FLEET.values())), cache_mb=6000.0,
        remote_io_mbps=400.0,
    )
    eff = {job.job_id: job.dataset.size_mb / 3 for job in jobs}
    ctx = ScheduleContext(
        estimator=estimator or _estimator(),
        storage_aware=True,
        gpu_pools=dict(FLEET),
        effective_cache_mb=eff,
    )
    policy = policy_cls()
    policy.schedule(jobs, total, ctx)
    return policy, ctx, jobs, total, eff


def _count_scorers_and_io_limits(monkeypatch):
    """Record every scorer built and the programme of every IO walk."""
    built, walked = [], []

    class CountingScorer(_AssignmentScorer):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    io_limit = Programme.io_limit

    def counting_io_limit(self, *args, **kwargs):
        walked.append(self)
        return io_limit(self, *args, **kwargs)

    monkeypatch.setattr(het, "_AssignmentScorer", CountingScorer)
    monkeypatch.setattr(Programme, "io_limit", counting_io_limit)
    return built, walked


def test_greedy_round_builds_its_scorer_on_first_read(monkeypatch):
    built, walked = _count_scorers_and_io_limits(monkeypatch)
    policy, ctx, jobs, total, eff = _round(6)
    assert len(FLEET) ** len(jobs) > _ENUM_LIMIT
    # The joint solver is a Programme too; the scorer's is a plain one.
    assert built == []
    assert [p for p in walked if type(p) is Programme] == []

    ratio = policy.last_assignment_ratio
    assert len(built) == 1
    assert [p for p in walked if type(p) is Programme] == [
        built[0].programme
    ]
    oracle = _estimator()
    eager = _AssignmentScorer(
        jobs, FLEET, total,
        [oracle.f_star_by_generation(job) for job in jobs],
        _normalisers(jobs, total), eff,
    )
    candidate = tuple(ctx.gen_assignments[job.job_id] for job in jobs)
    assert ratio == eager.ratio(candidate)
    assert policy.last_assignment_ratio == ratio
    assert len(built) == 1


def test_enumerated_round_builds_one_scorer(monkeypatch):
    built, _ = _count_scorers_and_io_limits(monkeypatch)
    policy, _, jobs, _, _ = _round(3)
    assert len(FLEET) ** len(jobs) <= _ENUM_LIMIT
    assert len(built) == 1
    policy.last_assignment_ratio
    assert len(built) == 1


@pytest.mark.parametrize(
    "policy_cls, n_jobs",
    [
        (HetMaxMinPolicy, 3),
        (HetMaxMinPolicy, 6),
        (HetMaxThroughputPolicy, 6),
    ],
)
def test_round_computes_each_f_star_table_once(policy_cls, n_jobs):
    """A round publishes a fresh estimator's ``f*`` table per job, and
    computes it at most once per job."""
    estimator = _estimator()
    calls = collections.Counter()
    f_star_by_generation = estimator.f_star_by_generation

    def counting(job):
        calls[job.job_id] += 1
        return f_star_by_generation(job)

    estimator.f_star_by_generation = counting
    _, ctx, jobs, _, _ = _round(n_jobs, policy_cls, estimator)
    assert set(calls) == {job.job_id for job in jobs}
    assert max(calls.values()) == 1
    oracle = _estimator()
    for job in jobs:
        assert ctx.gen_scores[job.job_id] == oracle.f_star_by_generation(job)


@pytest.mark.parametrize(
    "n_jobs, compute_bounds, scored",
    [
        (3, 3, 14),  # enumerated: 27 candidates, 14 scored
        (6, 6, 1),  # greedy: the chosen assignment, scored on read
    ],
)
def test_mixed_fleet_round_work(monkeypatch, n_jobs, compute_bounds, scored):
    """Call counts of one mixed-fleet round, timing-free. The
    ``compute_bound`` calls left are the slack pass's throughput sort,
    and the enumerated round scores the 14 candidates a
    candidate-by-candidate bound check scores."""
    calls = collections.Counter()

    def count(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(gavel, "equal_share")
    count(SiloDPerfEstimator, "compute_bound")
    count(_AssignmentScorer, "bound")
    count(_AssignmentScorer, "ratio")
    policy, ctx, jobs, _, _ = _round(n_jobs)
    assert (len(FLEET) ** n_jobs > _ENUM_LIMIT) == (n_jobs == 6)
    policy.last_assignment_ratio
    assert calls["equal_share"] == 0
    assert calls["bound"] == 0
    assert calls["compute_bound"] == compute_bounds
    assert calls["ratio"] == scored
