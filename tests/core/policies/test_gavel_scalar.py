"""The scalar joint solver reproduces the numpy one bit for bit.

Gavel's joint (GPU, cache, IO) max-min round has two implementations:
``GavelPolicy._solve_numpy`` (the reference, built on ``_feasible``) and
``GavelPolicy._solve_scalar`` for small rounds. Each is called directly
here and every target, grant and ``job_scores`` entry must be equal as
``float.hex``. Inputs cover shared datasets (the ``bincount`` path),
binding and slack cache budgets, near-tied savings (equal-size datasets,
decimal throughputs), jobs whose ``f*`` cap binds so progressive filling
freezes them, an effective-cache view, and one to three generation
pools.
"""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import (
    _EPS,
    _SCALAR_MAX_JOBS,
    GavelPolicy,
    _Datasets,
    _JointArrays,
    _pairwise_sum,
    _ScalarRound,
)
from repro.core.resources import ResourceVector

GB = 1024.0

# --------------------------------------------------------------------------
# _pairwise_sum == np.sum
# --------------------------------------------------------------------------

def _summand(rng):
    """Mixed signs, magnitudes from 1e-300 to 1e300, and signed zeros."""
    if rng.random() < 0.1:
        return rng.choice([0.0, -0.0])
    sign = rng.choice([-1.0, 1.0])
    return sign * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299)


@given(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=500, deadline=None)
def test_pairwise_sum_matches_numpy_bitwise(n, seed):
    """Below 8 elements, the single 8-accumulator block up to 128 and
    the recursive split beyond: all equal ``np.sum`` to the bit."""
    rng = random.Random(seed)
    values = [_summand(rng) for _ in range(n)]
    want = float(np.sum(np.array(values, dtype=float)))
    assert _pairwise_sum(values).hex() == want.hex()


@given(st.lists(st.floats(allow_nan=False), max_size=40))
@settings(max_examples=300, deadline=None)
def test_pairwise_sum_matches_numpy_on_any_floats(values):
    """Hypothesis's own float edge cases (subnormals, infinities, huge
    values that overflow) shrink to a short failing vector."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = float(np.sum(np.array(values, dtype=float)))
    assert _pairwise_sum(values).hex() == want.hex()


def test_pairwise_sum_keeps_numpy_signed_zero():
    """numpy reduces from ``+0.0``: a sum of negative zeros is ``+0.0``."""
    for n in (0, 1, 7, 8, 9, 128, 129, 300):
        values = [-0.0] * n
        want = float(np.sum(np.array(values, dtype=float)))
        assert _pairwise_sum(values).hex() == want.hex() == "0x0.0p+0"


# --------------------------------------------------------------------------
# scalar round solver == numpy round solver
# --------------------------------------------------------------------------

#: Equal sizes make near-tied savings; two larger ones vary the ranking.
_DATASET_GB = {"d0": 50.0, "d1": 50.0, "d2": 50.0, "d3": 120.0, "d4": 300.0}

_job_rows = st.tuples(
    st.sampled_from(sorted(_DATASET_GB)),
    st.sampled_from([1, 2, 4, 8]),
    # Decimal throughputs: sums of t/d differ in the last bits only.
    st.sampled_from([10.0, 30.0, 33.3, 60.0, 99.9, 100.0, 240.0]),
    st.sampled_from([1.0, 1.0, 2.0]),
)


def _jobs(rows):
    return [
        Job(
            job_id=f"j{i}",
            model="m",
            dataset=Dataset(name, _DATASET_GB[name] * GB),
            num_gpus=gpus,
            ideal_throughput_mbps=f_star,
            total_work_mb=GB,
            weight=weight,
        )
        for i, (name, gpus, f_star, weight) in enumerate(rows)
    ]


def _solve_both(jobs, total, pools, effective):
    policy = GavelPolicy()
    policy._pool_members = pools
    ctx = ScheduleContext(
        estimator=SiloDPerfEstimator(), effective_cache_mb=effective
    )
    shares = policy._normalisers(jobs, total, ctx)
    scalar = policy._solve_scalar(jobs, total, ctx, shares)
    numpy = policy._solve_numpy(jobs, total, ctx, shares)
    return scalar, numpy


def _hexes(solution):
    return {
        "ds_names": list(solution.ds_names),
        "cache_mb": [x.hex() for x in solution.cache_mb],
        "targets": [x.hex() for x in solution.targets],
        "gpus": [x.hex() for x in solution.gpus],
        "remote_io_mbps": [x.hex() for x in solution.remote_io_mbps],
        "used_io_mbps": solution.used_io_mbps.hex(),
    }


@st.composite
def rounds(draw):
    rows = draw(st.lists(_job_rows, min_size=1, max_size=_SCALAR_MAX_JOBS))
    jobs = _jobs(rows)
    dataset_mb = sum(
        _DATASET_GB[name] * GB for name in {row[0] for row in rows}
    )
    total = ResourceVector(
        # Plenty of GPUs lets small jobs hit their f* cap and freeze.
        gpus=draw(st.sampled_from([2, 8, 16, 64, 256])),
        # Budgets from nothing, through binding, to covering every set.
        cache_mb=dataset_mb * draw(st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.0])),
        remote_io_mbps=draw(st.sampled_from([50.0, 400.0, 3000.0, 1e6])),
    )
    num_pools = draw(st.integers(min_value=0, max_value=3))
    pools = ()
    if num_pools:
        owner = draw(
            st.lists(
                st.integers(0, num_pools - 1),
                min_size=len(jobs),
                max_size=len(jobs),
            )
        )
        pools = [
            (
                draw(st.integers(min_value=1, max_value=64)),
                [i for i, pool in enumerate(owner) if pool == p],
            )
            for p in range(num_pools)
        ]
    effective = None
    if draw(st.booleans()):
        fraction = draw(st.sampled_from([0.0, 0.25, 0.9, 1.0]))

        def effective(job):
            return job.dataset.size_mb * fraction

    return jobs, total, pools, effective


@given(rounds())
@settings(max_examples=300, deadline=None)
def test_scalar_solver_matches_numpy_bitwise(case):
    jobs, total, pools, effective = case
    scalar, numpy = _solve_both(jobs, total, pools, effective)
    assert _hexes(scalar) == _hexes(numpy)


def test_solvers_agree_on_a_round_that_freezes_jobs():
    """One-GPU jobs reach their ``f*`` cap at a lower ratio than the
    eight-GPU jobs, so they freeze and the ratio keeps rising."""
    rows = [
        ("d0", 1, 30.0, 1.0),
        ("d0", 8, 240.0, 1.0),
        ("d1", 1, 10.0, 1.0),
        ("d3", 8, 240.0, 2.0),
        ("d4", 4, 99.9, 1.0),
    ]
    jobs = _jobs(rows)
    total = ResourceVector(gpus=12, cache_mb=100.0 * GB, remote_io_mbps=400.0)
    scalar, numpy = _solve_both(jobs, total, (), None)
    assert _hexes(scalar) == _hexes(numpy)
    estimator = SiloDPerfEstimator()
    f_star = [estimator.compute_bound(j, j.num_gpus) for j in jobs]
    frozen = [t == f for t, f in zip(scalar.targets, f_star)]
    assert any(frozen) and not all(frozen)


def test_solvers_agree_when_a_job_ends_just_below_its_cap():
    """A pool capacity that binds 3e-6 below job ``a``'s ``f*`` cap: the
    job is not frozen (the freeze threshold is 1e-6), and both solvers
    must agree on that to the bit."""
    jobs = _jobs([("d0", 1, 60.0, 1.0), ("d1", 8, 240.0, 1.0)])
    # Six GPUs: ``a`` gets its whole request as equal share, ``b`` three
    # of eight, so ``a``'s cap binds first (at ratio 1).
    total = ResourceVector(gpus=6, cache_mb=1e9, remote_io_mbps=1e9)
    policy = GavelPolicy()
    ctx = ScheduleContext(estimator=SiloDPerfEstimator())
    shares = policy._normalisers(jobs, total, ctx)
    arrays = _JointArrays(jobs, shares, ctx)
    per_ratio = float(np.sum(arrays.perf_eq / arrays.f_star * arrays.gpus))
    ratio = float(arrays.f_star[0] / arrays.perf_eq[0]) * (1.0 - 3e-6)
    pools = [(ratio * per_ratio / (1.0 + _EPS), [0, 1])]
    scalar, numpy = _solve_both(jobs, total, pools, None)
    assert _hexes(scalar) == _hexes(numpy)
    f_star_a = float(arrays.f_star[0])
    assert f_star_a * (1.0 - 1e-5) < scalar.targets[0] < f_star_a * (1.0 - 1e-6)


def _nudged(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@given(rounds(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_feasibility_agrees_at_each_boundary(case, seed):
    """Place the GPU, pool and IO limits within a few ulps of the numpy
    totals at random targets: both feasibility checks give the same
    answer, so the sums agree to the bit at the point where rounding
    decides."""
    jobs, total, pools, effective = case
    rng = random.Random(seed)
    policy = GavelPolicy()
    ctx = ScheduleContext(
        estimator=SiloDPerfEstimator(), effective_cache_mb=effective
    )
    shares = policy._normalisers(jobs, total, ctx)
    arrays = _JointArrays(jobs, shares, ctx)
    targets = np.array([f * rng.random() for f in arrays.f_star])
    frozen = np.ones(len(jobs), dtype=bool)  # ``_feasible`` at ``targets``
    demand = targets / arrays.f_star * arrays.gpus
    cache = arrays.cache_plan_with_budget(targets, total.cache_mb)
    limits = {
        "gpus": float(np.sum(demand)),
        "io": arrays.total_remote_io(targets, cache),
    }
    for p, (_, members) in enumerate(pools):
        limits[p] = float(demand[members].sum())
    for which, used in limits.items():
        for steps in range(-2, 3):
            limit = _nudged(used / (1.0 + _EPS), steps)
            if limit < 0.0:
                continue
            at = ResourceVector(
                gpus=limit if which == "gpus" else 1e12,
                cache_mb=total.cache_mb,
                remote_io_mbps=limit if which == "io" else 1e12,
            )
            policy._pool_members = [
                (limit if p == which else 1e12, members)
                for p, (_, members) in enumerate(pools)
            ]
            want = policy._feasible(0.0, arrays, frozen, targets, at)
            got = _ScalarRound(
                jobs, shares, ctx, at, policy._pool_members
            )._feasible(targets.tolist())
            assert got == want, (which, steps)


def test_cache_plan_sums_savings_in_job_order():
    """``0.1 + 0.7 + 0.2`` over one dataset ties a single ``1.0`` on
    another only when summed in job order, so the plan's first (and
    only) grant depends on the accumulation order."""
    jobs = _jobs([("d0", 1, 100.0, 1.0)] * 3 + [("d1", 1, 100.0, 1.0)])
    targets = [0.1, 0.7, 0.2, 1.0]
    budget = 50.0 * GB
    ctx = ScheduleContext(estimator=SiloDPerfEstimator())
    total = ResourceVector(gpus=8, cache_mb=budget, remote_io_mbps=1.0)
    arrays = _JointArrays(
        jobs, GavelPolicy()._normalisers(jobs, total, ctx), ctx
    )
    want = arrays.cache_plan_with_budget(np.array(targets), budget)
    got = _Datasets(jobs).cache_plan(targets, budget)
    assert got == want.tolist() == [budget, 0.0]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(_DATASET_GB)),
            st.sampled_from([0.0, 10.0, 33.3, 66.6, 99.9, 100.0]),
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([0.0, 40.0, 50.0, 100.0, 170.0, 520.0, 1e6]),
)
@settings(max_examples=200, deadline=None)
def test_cache_plan_matches_numpy_bitwise(rows, budget_gb):
    """The index-based plan the scalar solver and the het scorer share
    equals ``_JointArrays.cache_plan_with_budget`` grant by grant."""
    jobs = _jobs([(name, 1, 100.0, 1.0) for name, _ in rows])
    targets = [target for _, target in rows]
    ctx = ScheduleContext(estimator=SiloDPerfEstimator())
    total = ResourceVector(gpus=8, cache_mb=budget_gb * GB, remote_io_mbps=1.0)
    arrays = _JointArrays(
        jobs, GavelPolicy()._normalisers(jobs, total, ctx), ctx
    )
    want = arrays.cache_plan_with_budget(np.array(targets), total.cache_mb)
    got = _Datasets(jobs).cache_plan(targets, total.cache_mb)
    assert [x.hex() for x in got] == [x.hex() for x in want.tolist()]
