"""Gavel's joint solver: its cache plan, its feasibility predicate and
its closed-form common ratio.

The cache plan copies numpy's ``bincount``/stable ``argsort`` ranking,
checked against numpy as ``float.hex``. The predicate's GPU, pool and
IO totals are ``math.fsum`` sums. The closed-form ratio is checked on
every step of the filling loop against the 40-step bisection it
replaced (``tests/core/ratio_oracles.py``) and, with the cache off,
against Gavel's LP. Inputs cover shared datasets, binding and slack
cache budgets, near-tied savings (equal-size datasets, decimal
throughputs), jobs whose ``f*`` cap binds so progressive filling
freezes them, an effective-cache view, and one to three generation
pools.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import (
    _EPS,
    GavelPolicy,
    Programme,
    _Datasets,
    _JointRound,
)
from repro.core.resources import ResourceVector
from tests.core.ratio_oracles import bisect_ratio, lp_ratio

GB = 1024.0

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
        effective = {
            job.job_id: job.dataset.size_mb * fraction for job in jobs
        }

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
    targets = _round(jobs, total).solve()
    estimator = SiloDPerfEstimator()
    f_star = [estimator.compute_bound(j, j.num_gpus) for j in jobs]
    frozen = [t == f for t, f in zip(targets, f_star)]
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
    targets = _round(jobs, total, pools).solve()
    f_star_a = free.f_star[0]
    assert f_star_a * (1.0 - 1e-5) < targets[0] < f_star_a * (1.0 - 1e-6)


def _nudged(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@given(rounds(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_feasibility_agrees_at_each_boundary(case, seed):
    """Place the GPU, pool and IO limits within a few ulps of totals
    summed with ``math.fsum`` at random targets: the predicate flips
    exactly where the correctly rounded total crosses the limit."""
    jobs, total, pools, effective = case
    rng = random.Random(seed)
    f_star = [j.ideal_throughput_mbps for j in jobs]
    d = [j.dataset.size_mb for j in jobs]
    eff = d if effective is None else [effective[j.job_id] for j in jobs]
    targets = [f * rng.random() for f in f_star]
    demand = [t / f * j.num_gpus for t, f, j in zip(targets, f_star, jobs)]
    cache = _numpy_cache_plan(jobs, targets, total.cache_mb).tolist()
    index = _dataset_numbers(jobs)
    io = [
        t * (1.0 - min(1.0, min(cache[k], e) / size))
        for t, k, e, size in zip(targets, index, eff, d)
    ]
    limits = {"gpus": math.fsum(demand), "io": math.fsum(io)}
    for p, (_, members) in enumerate(pools):
        limits[p] = math.fsum(demand[j] for j in members)
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
            solver = _round(jobs, at, at_pools, effective)
            want = used <= limit * (1.0 + _EPS)
            got = solver.feasible(targets, solver.f_star, solver.pools)
            assert got == want, (which, steps)


# --------------------------------------------------------------------------
# The closed-form common ratio
# --------------------------------------------------------------------------

def _filling_steps(solver):
    """Every ``(fixed, ratio)`` the solver's filling loop visits, replayed
    step by step; ``fixed`` holds frozen jobs' targets, else ``None``."""
    f_star, perf_eq = solver.f_star, solver.perf_eq
    fixed = [None] * len(f_star)
    while None in fixed:
        ratio = solver.common_ratio(f_star, solver.pools, fixed)
        yield list(fixed), ratio
        capped = [
            i for i, t in enumerate(fixed)
            if t is None and ratio * perf_eq[i] >= f_star[i] * (1.0 - 1e-6)
        ]
        if not capped:
            return
        for i in capped:
            fixed[i] = f_star[i]


@given(rounds())
@settings(max_examples=300, deadline=None)
def test_closed_form_is_the_largest_feasible_ratio(case):
    """On every filling step, frozen jobs included: the ratio is
    feasible, ``r * (1 + 1e-9)`` is not (caps carry the budgets'
    slack, so this holds when a cap binds too), and ``r`` is at least
    the 40-step bisection's answer over ``[0, hi]``. With warm caches IO
    is the minimum of nondecreasing linear plans, so feasibility is
    monotone and ``r`` is also at most a bisection step above it; cold
    caches can break monotonicity."""
    solver = _round(*case)
    f_star = solver.f_star
    for fixed, ratio in _filling_steps(solver):

        def accepts(r, fixed=fixed):
            targets = solver.targets(r, fixed)
            return solver.feasible(targets, f_star, solver.pools)

        hi = solver.cap_limit(f_star, fixed)
        lo = bisect_ratio(accepts, hi)
        assert ratio >= lo
        assert accepts(ratio) or ratio == lo == 0.0
        assert not accepts(ratio * (1.0 + 1e-9))
        if case[3] is None:
            assert ratio <= lo + hi * 2.0**-40 + 4 * math.ulp(ratio)


def test_io_limit_takes_the_plan_below_a_crossing():
    """A frozen job's dataset holds the cache until the active job's
    saving overtakes it at ``r = 50``. The egress budget binds at
    ``r = 40``, below the crossing; the plan above it (the other dataset
    cached) would leave the frozen job's 50 MB/s uncached and no ratio
    feasible."""
    jobs = _jobs([("d0", 1, 100.0, 1.0), ("d1", 1, 1000.0, 1.0)])
    size_mb = jobs[0].dataset.size_mb
    programme = Programme(jobs, [1.0, 1.0], None, size_mb, 40.0)
    ratio = programme.common_ratio([100.0, 1000.0], [], [50.0, None])
    assert ratio == pytest.approx(40.0 * (1.0 + _EPS), rel=1e-12)


@given(rounds())
@settings(max_examples=150, deadline=None)
def test_closed_form_is_within_gavels_lp_with_the_cache_off(case):
    """With no cache every byte is read remotely, so the programme is
    Gavel's LP: no filling step may exceed its optimum."""
    jobs, total, pools, effective = case
    total = ResourceVector(
        gpus=total.gpus, cache_mb=0.0, remote_io_mbps=total.remote_io_mbps
    )
    solver = _round(jobs, total, pools, effective)
    by_gen = [{"g": f} for f in solver.f_star]
    lp_pools = [
        (capacity, [(j, "g") for j in members])
        for capacity, members in [(total.gpus, range(len(jobs)))] + list(pools)
    ]
    for fixed, ratio in _filling_steps(solver):
        bound = lp_ratio(
            solver.perf_eq, by_gen, solver.gpus, lp_pools,
            total.remote_io_mbps, fixed,
        )
        assert ratio <= bound * (1.0 + 1e-9)
