"""Max-min property: the het policy's assignment is brute-force optimal.

``HetMaxMinPolicy`` enumerates generation assignments (within
``_ENUM_LIMIT``) and records the winning common throughput ratio in
``last_assignment_ratio``. On randomized small mixed fleets that ratio
must equal an independent brute-force maximisation over *every*
assignment, scored by the same pure-Python
``common_ratio_for_assignment`` oracle — and never fall below what the
greedy max-throughput sibling or the homogeneous delegate achieves on
the binding minimum. Enumerated and greedy rounds alike stay within
Gavel's LP over time fractions ``X[job, generation]``, which relaxes any
integral assignment.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator
from repro.core.perf_model import default_speedup_table
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import equal_share
from repro.core.policies.het import (
    _ENUM_LIMIT,
    HetMaxMinPolicy,
    HetMaxThroughputPolicy,
    common_ratio_for_assignment,
)
from repro.core.resources import ResourceVector
from tests.core.ratio_oracles import lp_ratio

POOL_GENS = ("V100", "A100")


def _estimator():
    return HetSiloDPerfEstimator(speedups=default_speedup_table())


def _make_jobs(specs):
    return [
        Job(
            job_id=f"job-{i}",
            model="resnet50",
            dataset=Dataset(
                name=f"d-{i}", size_mb=size_mb, num_items=1000
            ),
            num_gpus=num_gpus,
            ideal_throughput_mbps=ideal,
            total_work_mb=4 * size_mb,
        )
        for i, (num_gpus, ideal, size_mb) in enumerate(specs)
    ]


def _context(estimator, pools):
    return ScheduleContext(
        estimator=estimator, storage_aware=True, gpu_pools=pools
    )


def _brute_force_ratio(jobs, pools, total, estimator, normalisers):
    """Max common ratio over every generation assignment, by the oracle."""
    best = -1.0
    gens = sorted(pools)
    for candidate in itertools.product(gens, repeat=len(jobs)):
        assignment = {
            job.job_id: gen for job, gen in zip(jobs, candidate)
        }
        ratio = common_ratio_for_assignment(
            jobs, assignment, pools, total, estimator, normalisers
        )
        best = max(best, ratio)
    return best


job_spec = st.tuples(
    st.integers(min_value=1, max_value=2),  # num_gpus
    st.floats(min_value=20.0, max_value=400.0),  # ideal_throughput_mbps
    st.floats(min_value=512.0, max_value=8192.0),  # dataset size_mb
)


@settings(max_examples=40, deadline=None)
@given(
    specs=st.lists(job_spec, min_size=2, max_size=4),
    cap_a=st.integers(min_value=1, max_value=4),
    cap_b=st.integers(min_value=1, max_value=4),
    cache_mb=st.floats(min_value=1024.0, max_value=32768.0),
    io_mbps=st.floats(min_value=50.0, max_value=2000.0),
)
def test_max_min_assignment_matches_brute_force(
    specs, cap_a, cap_b, cache_mb, io_mbps
):
    jobs = _make_jobs(specs)
    pools = {"V100": cap_a, "A100": cap_b}
    total = ResourceVector(
        gpus=float(cap_a + cap_b),
        cache_mb=cache_mb,
        remote_io_mbps=io_mbps,
    )
    estimator = _estimator()
    ctx = _context(estimator, pools)
    policy = HetMaxMinPolicy()
    policy.schedule(jobs, total, ctx)

    # Recompute the assignment-independent normalisers the policy used.
    oracle = _estimator()
    normalisers = {}
    for job in jobs:
        share = equal_share(job, len(jobs), total, oracle, True)
        normalisers[job.job_id] = max(share.perf_mbps * job.weight, 1e-12)

    expected = _brute_force_ratio(jobs, pools, total, oracle, normalisers)
    assert policy.last_assignment_ratio == pytest.approx(
        expected, rel=1e-9, abs=1e-9
    )
    # The chosen generations are published for provenance, one per job.
    assert set(ctx.gen_assignments) == {job.job_id for job in jobs}
    assert set(ctx.gen_scores) == {job.job_id for job in jobs}
    for scores in ctx.gen_scores.values():
        assert set(scores) >= set(POOL_GENS)


@settings(max_examples=25, deadline=None)
@given(
    specs=st.lists(job_spec, min_size=2, max_size=4),
    cap_a=st.integers(min_value=1, max_value=4),
    cap_b=st.integers(min_value=1, max_value=4),
)
def test_max_min_ratio_dominates_max_throughput_minimum(
    specs, cap_a, cap_b
):
    """Max-min's binding minimum is >= the max-sum policy's minimum."""
    jobs = _make_jobs(specs)
    pools = {"V100": cap_a, "A100": cap_b}
    total = ResourceVector(
        gpus=float(cap_a + cap_b),
        cache_mb=16384.0,
        remote_io_mbps=500.0,
    )
    max_min = HetMaxMinPolicy()
    max_min.schedule(jobs, total, _context(_estimator(), pools))

    # Score the max-throughput policy's assignment with the *max-min*
    # normalisers so the two ratios are comparable.
    sum_estimator = _estimator()
    sum_ctx = _context(sum_estimator, pools)
    HetMaxThroughputPolicy().schedule(jobs, total, sum_ctx)
    oracle = _estimator()
    normalisers = {}
    for job in jobs:
        share = equal_share(job, len(jobs), total, oracle, True)
        normalisers[job.job_id] = max(share.perf_mbps * job.weight, 1e-12)
    rival = common_ratio_for_assignment(
        jobs, dict(sum_ctx.gen_assignments), pools, total, oracle, normalisers
    )
    assert max_min.last_assignment_ratio >= rival - 1e-9


@pytest.mark.parametrize(
    "sizes", [(1, 5), (6, 8)], ids=["enumerated", "greedy"]
)
@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    caps=st.tuples(*[st.integers(min_value=1, max_value=4)] * 3),
    cache_mb=st.floats(min_value=0.0, max_value=32768.0),
    io_mbps=st.floats(min_value=50.0, max_value=2000.0),
)
def test_max_min_ratio_within_gavels_lp(sizes, data, caps, cache_mb, io_mbps):
    """``last_assignment_ratio`` of either search path is at most the LP
    bound with the cache and IO terms dropped: the LP lets a job split
    its time across generations, and drops budgets the ratio must
    meet."""
    specs = data.draw(
        st.lists(job_spec, min_size=sizes[0], max_size=sizes[1])
    )
    jobs = _make_jobs(specs)
    pools = dict(zip(("K80", "P100", "V100"), caps))
    enumerated = len(pools) ** len(jobs) <= _ENUM_LIMIT
    assert enumerated == (sizes[1] <= 5)
    total = ResourceVector(
        gpus=float(sum(caps)), cache_mb=cache_mb, remote_io_mbps=io_mbps
    )
    policy = HetMaxMinPolicy()
    policy.schedule(jobs, total, _context(_estimator(), pools))

    oracle = _estimator()
    norms = [
        max(
            equal_share(job, len(jobs), total, oracle, True).perf_mbps
            * job.weight,
            1e-12,
        )
        for job in jobs
    ]
    by_gen = [
        {gen: oracle.f_star_by_generation(job)[gen] for gen in pools}
        for job in jobs
    ]
    lp_pools = [
        (capacity, [(j, gen) for j in range(len(jobs))])
        for gen, capacity in pools.items()
    ]
    bound = lp_ratio(norms, by_gen, [job.num_gpus for job in jobs], lp_pools)
    assert policy.last_assignment_ratio <= bound * (1.0 + 1e-9)


def test_single_pool_delegates_to_homogeneous_gavel():
    """One generation -> no assignment search, plain Gavel allocation."""
    jobs = _make_jobs([(1, 100.0, 1024.0), (2, 200.0, 2048.0)])
    total = ResourceVector(gpus=4.0, cache_mb=8192.0, remote_io_mbps=400.0)
    estimator = _estimator()
    ctx = _context(estimator, {"V100": 4})
    policy = HetMaxMinPolicy()
    allocation = policy.schedule(jobs, total, ctx)
    assert set(ctx.gen_assignments.values()) == {"V100"}
    granted = sum(
        allocation.gpus.get(job.job_id, 0.0) for job in jobs
    )
    assert granted <= total.gpus + 1e-9
