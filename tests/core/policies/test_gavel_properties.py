"""Property-based tests of the Gavel joint solver."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import GavelPolicy, _JointArrays
from repro.core.resources import ResourceVector

GB = 1024.0
ESTIMATOR = SiloDPerfEstimator()

job_sets = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=500.0),   # f*
        st.floats(min_value=1.0, max_value=500.0),   # dataset GB
        st.integers(min_value=1, max_value=8),       # gpus
    ),
    min_size=1,
    max_size=8,
)
totals = st.tuples(
    st.integers(min_value=1, max_value=32),          # gpus
    st.floats(min_value=0.0, max_value=1_000.0),     # cache GB
    st.floats(min_value=1.0, max_value=500.0),       # io MB/s
)


def build(specs):
    return [
        Job(
            job_id=f"g{i}",
            model="m",
            dataset=Dataset(f"d-{i}", d_gb * GB),
            num_gpus=gpus,
            ideal_throughput_mbps=f_star,
            total_work_mb=2 * d_gb * GB,
        )
        for i, (f_star, d_gb, gpus) in enumerate(specs)
    ]


def throughputs(alloc, jobs):
    return {
        j.job_id: ESTIMATOR.estimate(
            j,
            alloc.gpus_of(j.job_id),
            alloc.cache_of(j.dataset.name),
            alloc.remote_io_of(j.job_id),
        )
        for j in jobs
    }


@given(specs=job_sets, total_spec=totals)
@settings(max_examples=60, deadline=None)
def test_joint_allocation_respects_budgets(specs, total_spec):
    gpus, cache_gb, io = total_spec
    jobs = build(specs)
    total = ResourceVector(
        gpus=gpus, cache_mb=cache_gb * GB, remote_io_mbps=io
    )
    alloc = GavelPolicy().schedule(
        jobs, total, ScheduleContext(estimator=ESTIMATOR)
    )
    used = alloc.total()
    assert used.gpus <= total.gpus * (1 + 1e-6) + 1e-6
    assert used.cache_mb <= total.cache_mb * (1 + 1e-6) + 1e-6
    assert used.remote_io_mbps <= total.remote_io_mbps * (1 + 1e-6) + 1e-6
    # No job exceeds its request or its compute bound.
    for j in jobs:
        assert alloc.gpus_of(j.job_id) <= j.num_gpus + 1e-9
        assert (
            throughputs(alloc, jobs)[j.job_id]
            <= j.ideal_throughput_mbps + 1e-6
        )


@given(specs=job_sets)
@settings(max_examples=30, deadline=None)
def test_solver_is_deterministic(specs):
    """Same inputs produce the identical allocation (no hidden state)."""
    jobs = build(specs)
    total = ResourceVector(gpus=16, cache_mb=100 * GB, remote_io_mbps=50.0)
    ctx = ScheduleContext(estimator=ESTIMATOR)
    first = throughputs(GavelPolicy().schedule(jobs, total, ctx), jobs)
    second = throughputs(GavelPolicy().schedule(jobs, total, ctx), jobs)
    for job_id, value in first.items():
        assert second[job_id] == value


@given(
    f_star=st.floats(min_value=5.0, max_value=300.0),
    d_gb=st.floats(min_value=10.0, max_value=400.0),
)
@settings(max_examples=30, deadline=None)
def test_weighted_fairness_orders_identical_jobs(f_star, d_gb):
    """Of two identical jobs, the weight-2 one receives at least as much
    throughput, and at most ~2x (its entitlement)."""
    base = dict(
        model="m",
        num_gpus=1,
        ideal_throughput_mbps=f_star,
        total_work_mb=2 * d_gb * GB,
    )
    heavy = Job(
        job_id="heavy", dataset=Dataset("d-h", d_gb * GB), weight=2.0, **base
    )
    light = Job(
        job_id="light", dataset=Dataset("d-l", d_gb * GB), weight=1.0, **base
    )
    # Scarce egress so the weights actually bind.
    total = ResourceVector(
        gpus=2, cache_mb=0.5 * d_gb * GB, remote_io_mbps=f_star
    )
    ctx = ScheduleContext(estimator=ESTIMATOR)
    achieved = throughputs(
        GavelPolicy().schedule([heavy, light], total, ctx), [heavy, light]
    )
    assert achieved["heavy"] >= achieved["light"] - 1e-6
    if achieved["light"] > 1e-6:
        assert achieved["heavy"] <= 2.0 * achieved["light"] * (1 + 1e-3)


@given(specs=job_sets)
@settings(max_examples=30, deadline=None)
def test_single_job_is_never_worse_than_equal_share(specs):
    """The max-min value is at least the equal-division value: ratio >= 1
    is always feasible, so no job lands below its equal share."""
    jobs = build(specs)
    total = ResourceVector(gpus=16, cache_mb=200 * GB, remote_io_mbps=100.0)
    ctx = ScheduleContext(estimator=ESTIMATOR)
    alloc = GavelPolicy().schedule(jobs, total, ctx)
    achieved = throughputs(alloc, jobs)
    from repro.core.policies.gavel import equal_share

    for j in jobs:
        share = equal_share(j, len(jobs), total, ESTIMATOR, True)
        assert achieved[j.job_id] >= share.perf_mbps * (1 - 1e-4)


def _add_at_cache_plan(arrays, targets, budget_mb):
    """The cache plan as first written, accumulating with ``np.add.at``."""
    saving = np.zeros(len(arrays.ds_size))
    np.add.at(saving, arrays.ds_index, targets / arrays.d)
    order = np.argsort(-saving, kind="stable")
    sizes = arrays.ds_size[order]
    before = np.concatenate(([0.0], np.cumsum(sizes)[:-1]))
    grants_sorted = np.clip(budget_mb - before, 0.0, sizes)
    grants = np.empty_like(grants_sorted)
    grants[order] = grants_sorted
    return grants


@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),       # dataset
            st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7]),  # target MB/s
        ),
        min_size=2,
        max_size=10,
    ),
    budget_gb=st.floats(min_value=0.0, max_value=200.0),
)
@settings(max_examples=100, deadline=None)
def test_cache_plan_bincount_matches_add_at_bitwise(rows, budget_gb):
    """``np.bincount`` and ``np.add.at`` both sum each dataset's savings
    in job order, so the plan is bit-identical when jobs share datasets.
    Equal-size datasets and decimal targets make near-tied savings,
    where a different summation order would reorder the plan."""
    jobs = [
        Job(
            job_id=f"s{i}",
            model="m",
            dataset=Dataset(f"shared-{k}", 50.0 * GB),
            num_gpus=1,
            ideal_throughput_mbps=100.0,
            total_work_mb=GB,
        )
        for i, (k, _) in enumerate(rows)
    ]
    total = ResourceVector(
        gpus=8, cache_mb=budget_gb * GB, remote_io_mbps=100.0
    )
    ctx = ScheduleContext(estimator=ESTIMATOR)
    arrays = _JointArrays(
        jobs, GavelPolicy()._normalisers(jobs, total, ctx), ctx
    )
    assume(len(arrays.ds_names) < len(jobs))  # some dataset is shared
    targets = np.array([target for _, target in rows])
    got = arrays.cache_plan_with_budget(targets, total.cache_mb)
    want = _add_at_cache_plan(arrays, targets, total.cache_mb)
    assert got.tobytes() == want.tobytes()
