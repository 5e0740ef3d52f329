"""Gavel's joint solver against numpy references.

The solver runs on plain floats, but its sums copy numpy's pairwise
summation and its cache plan copies numpy's ``bincount``/stable
``argsort`` ranking: the bit-exact anchors were pinned while a numpy
solver ran every round. numpy appears here only as the reference
those copies are checked against, as ``float.hex``. Inputs cover shared
datasets, binding and slack cache budgets, near-tied savings
(equal-size datasets, decimal throughputs), jobs whose ``f*`` cap binds
so progressive filling freezes them, an effective-cache view, and one
to three generation pools.
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
    GavelPolicy,
    _Datasets,
    _JointRound,
    _pairwise_sum,
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
# The cache plan == numpy's bincount / stable argsort / cumsum plan
# --------------------------------------------------------------------------

#: Equal sizes make near-tied savings; two larger ones vary the ranking.
_DATASET_GB = {"d0": 50.0, "d1": 50.0, "d2": 50.0, "d3": 120.0, "d4": 300.0}


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


def _dataset_numbers(jobs):
    """Each job's dataset number, in first-appearance job order."""
    names = list(dict.fromkeys(j.dataset.name for j in jobs))
    return np.array([names.index(j.dataset.name) for j in jobs])


def _numpy_cache_plan(jobs, targets, budget_mb):
    """The cache plan in numpy: savings summed per dataset with
    ``np.add.at`` in job order, ranked by a stable ``argsort``, and the
    budget spent against a ``cumsum`` clipped to each dataset's size."""
    index = _dataset_numbers(jobs)
    d = np.array([j.dataset.size_mb for j in jobs])
    ds_size = np.zeros(index.max() + 1)
    ds_size[index] = d
    saving = np.zeros(len(ds_size))
    np.add.at(saving, index, np.asarray(targets, dtype=float) / d)
    order = np.argsort(-saving, kind="stable")
    sizes = ds_size[order]
    before = np.concatenate(([0.0], np.cumsum(sizes)[:-1]))
    grants = np.empty(len(ds_size))
    grants[order] = np.clip(budget_mb - before, 0.0, sizes)
    return grants


def test_cache_plan_sums_savings_in_job_order():
    """``0.1 + 0.7 + 0.2`` over one dataset ties a single ``1.0`` on
    another only when summed in job order, so the plan's first (and
    only) grant depends on the accumulation order."""
    jobs = _jobs([("d0", 1, 100.0, 1.0)] * 3 + [("d1", 1, 100.0, 1.0)])
    targets = [0.1, 0.7, 0.2, 1.0]
    budget = 50.0 * GB
    want = _numpy_cache_plan(jobs, targets, budget)
    got = _Datasets(jobs).cache_plan(targets, budget)
    assert got == want.tolist() == [budget, 0.0]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(_DATASET_GB)),
            st.sampled_from(
                [0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 10.0, 33.3, 66.6, 99.9, 100.0]
            ),
        ),
        min_size=1,
        max_size=64,
    ),
    st.one_of(
        st.sampled_from([0.0, 40.0, 50.0, 100.0, 170.0, 520.0, 1e6]),
        st.floats(min_value=0.0, max_value=200.0),
    ),
)
@settings(max_examples=300, deadline=None)
def test_cache_plan_matches_numpy_bitwise(rows, budget_gb):
    """The index-based plan the joint solver and the het scorer share
    equals the numpy plan grant by grant. Equal-size datasets and
    decimal targets make near-tied savings, where a different summation
    order or an unstable sort would reorder the plan."""
    jobs = _jobs([(name, 1, 100.0, 1.0) for name, _ in rows])
    targets = [target for _, target in rows]
    budget_mb = budget_gb * GB
    want = _numpy_cache_plan(jobs, targets, budget_mb)
    got = _Datasets(jobs).cache_plan(targets, budget_mb)
    assert [x.hex() for x in got] == [x.hex() for x in want.tolist()]


# --------------------------------------------------------------------------
# The round solver
# --------------------------------------------------------------------------

_job_rows = st.tuples(
    st.sampled_from(sorted(_DATASET_GB)),
    st.sampled_from([1, 2, 4, 8]),
    # Decimal throughputs: sums of t/d differ in the last bits only.
    st.sampled_from([10.0, 30.0, 33.3, 60.0, 99.9, 100.0, 240.0]),
    st.sampled_from([1.0, 1.0, 2.0]),
)


def _round(jobs, total, pools=(), effective=None):
    policy = GavelPolicy()
    ctx = ScheduleContext(
        estimator=SiloDPerfEstimator(), effective_cache_mb=effective
    )
    shares = policy._normalisers(jobs, total, ctx)
    return _JointRound(jobs, shares, ctx, total, pools)


@st.composite
def rounds(draw):
    rows = draw(st.lists(_job_rows, min_size=1, max_size=64))
    jobs = _jobs(rows)
    dataset_mb = sum(
        _DATASET_GB[name] * GB for name in {row[0] for row in rows}
    )
    total = ResourceVector(
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


def test_solver_freezes_jobs_whose_cap_binds():
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
    solution = _round(jobs, total).solve()
    estimator = SiloDPerfEstimator()
    f_star = [estimator.compute_bound(j, j.num_gpus) for j in jobs]
    frozen = [t == f for t, f in zip(solution.targets, f_star)]
    assert any(frozen) and not all(frozen)


def test_solver_keeps_a_job_just_below_its_cap_active():
    """A pool capacity that binds 3e-6 below job ``a``'s ``f*`` cap: the
    job is not frozen (the freeze threshold is 1e-6), so its target
    ends between the two thresholds."""
    jobs = _jobs([("d0", 1, 60.0, 1.0), ("d1", 8, 240.0, 1.0)])
    # Six GPUs: ``a`` gets its whole request as equal share, ``b`` three
    # of eight, so ``a``'s cap binds first (at ratio 1).
    total = ResourceVector(gpus=6, cache_mb=1e9, remote_io_mbps=1e9)
    free = _round(jobs, total)
    f_star = np.array(free.f_star)
    per_ratio = float(
        np.sum(np.array(free.perf_eq) / f_star * np.array(free.gpus))
    )
    ratio = free.f_star[0] / free.perf_eq[0] * (1.0 - 3e-6)
    pools = [(ratio * per_ratio / (1.0 + _EPS), [0, 1])]
    solution = _round(jobs, total, pools).solve()
    f_star_a = free.f_star[0]
    assert f_star_a * (1.0 - 1e-5) < solution.targets[0] < f_star_a * (1.0 - 1e-6)


def _nudged(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@given(rounds(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_feasibility_agrees_at_each_boundary(case, seed):
    """Place the GPU, pool and IO limits within a few ulps of totals
    summed with ``np.sum`` at random targets: ``_feasible`` flips
    exactly where the numpy total crosses the limit, so the solver's
    sums agree with numpy's to the bit at the point where rounding
    decides."""
    jobs, total, pools, effective = case
    rng = random.Random(seed)
    ctx = ScheduleContext(
        estimator=SiloDPerfEstimator(), effective_cache_mb=effective
    )
    shares = GavelPolicy()._normalisers(jobs, total, ctx)
    f_star = np.array([j.ideal_throughput_mbps for j in jobs])
    gpus = np.array([float(j.num_gpus) for j in jobs])
    d = np.array([j.dataset.size_mb for j in jobs])
    eff = d if effective is None else np.array([effective(j) for j in jobs])
    targets = np.array([f * rng.random() for f in f_star])
    demand = targets / f_star * gpus
    cache = _numpy_cache_plan(jobs, targets, total.cache_mb)
    hits = np.minimum(cache[_dataset_numbers(jobs)], eff)
    io = targets * (1.0 - np.minimum(1.0, hits / d))
    limits = {"gpus": float(np.sum(demand)), "io": float(np.sum(io))}
    for p, (_, members) in enumerate(pools):
        limits[p] = float(np.sum(demand[members]))
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
            at_pools = [
                (limit if p == which else 1e12, members)
                for p, (_, members) in enumerate(pools)
            ]
            want = used <= limit * (1.0 + _EPS)
            got = _JointRound(jobs, shares, ctx, at, at_pools)._feasible(
                targets.tolist()
            )
            assert got == want, (which, steps)
