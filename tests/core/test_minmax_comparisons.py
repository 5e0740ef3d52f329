"""The round's two-operand ``min``/``max`` are written as comparisons.

``min(a, b)`` keeps ``a`` unless ``b < a``, and ``max(a, b)`` keeps
``a`` unless ``b > a`` (CPython's own rule), so ``b if b < a else a``
and ``b if b > a else a`` return the very same object for ties, NaNs,
signed zeros and int/float mixes. The first test pins that rule; the
rest compare each rewritten hot function, bit for bit, against a copy
of its builtin-calling body kept here as the oracle.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.estimator import linear_compute_estimator
from repro.core.policies.gavel import Programme, equal_division
from repro.core.resources import ResourceVector

#: Every float, with the edges the rule must get right spelled out.
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, 1e-12]),
    st.floats(allow_nan=True, allow_infinity=True),
)
#: Floats and the ints they tie with.
NUMBERS = st.one_of(FLOATS, st.integers(-3, 3))
#: Non-negative floats a model input may carry, infinity and NaN included.
AMOUNTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, math.inf, math.nan]),
    st.floats(min_value=0.0, max_value=1e9),
)
SIZES = st.floats(min_value=1e-3, max_value=1e9)
#: Normalisers: ``max(perf, 1e-12)`` lets an infinite or NaN one through.
NORMS = st.one_of(SIZES, st.sampled_from([math.inf, math.nan]))


def bits(value):
    """A value's exact identity: its type and, for a float, its hex."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (list, tuple)):
        return tuple(bits(v) for v in value)
    return (type(value).__name__, value)


def outcome(fn, *args):
    """``fn(*args)`` as comparable bits, or the exception type raised."""
    try:
        return bits(fn(*args))
    except Exception as exc:  # the oracle's exception must match too
        return ("raised", type(exc).__name__)


@settings(max_examples=500, deadline=None)
@given(NUMBERS, NUMBERS)
def test_comparison_returns_the_builtins_object(a, b):
    assert (b if b < a else a) is min(a, b)
    assert (b if b > a else a) is max(a, b)


# ----------------------------------------------------------------------
# Oracles: the parent bodies, calling the builtins.
# ----------------------------------------------------------------------


def hit_ratio_oracle(cache_mb, dataset_mb):
    if dataset_mb <= 0:
        raise ValueError("dataset size must be positive")
    if cache_mb < 0:
        raise ValueError("cache size must be non-negative")
    return min(1.0, cache_mb / dataset_mb)


def silod_perf_oracle(ideal, remote_io, cache_mb, dataset_mb):
    if ideal < 0:
        raise ValueError("ideal throughput must be non-negative")
    return min(
        ideal, perf_model.io_throughput(remote_io, cache_mb, dataset_mb)
    )


def achieved_rate_oracle(f_star, hit, grant):
    miss = 1.0 - hit
    if miss <= 1e-12:
        return f_star
    return min(f_star, grant / miss)


def linear_compute_oracle(job, gpus):
    fraction = min(1.0, gpus / job.num_gpus)
    return job.ideal_throughput_mbps * fraction


def equal_division_oracle(job, num_jobs, total):
    if num_jobs < 1:
        raise ValueError("need at least one job")
    return (
        min(job.num_gpus, total.gpus / num_jobs),
        min(job.dataset.size_mb, total.cache_mb / num_jobs),
        total.remote_io_mbps / num_jobs,
    )


def remote_io_oracle(programme, targets, cache):
    ds = programme.datasets
    return [
        t * (1.0 - min(1.0, min(cache[k], eff) / d))
        for t, k, eff, d in zip(targets, ds.index, programme.eff, ds.d)
    ]


def cap_limit_oracle(programme, f_star, fixed=()):
    hi = math.inf
    fixed = fixed or [None] * len(f_star)
    rows = zip(programme.jobs, f_star, programme.norms, fixed)
    for job, f, norm, t in rows:
        if t is None:
            if not f > 0.0:
                raise ValueError(f"job {job.job_id}: f* = {f!r}")
            hi = min(hi, f * (1.0 + 1e-9) / norm)
    return hi


def cache_plan_oracle(datasets, targets, budget_mb):
    neg = [-x for x in datasets.savings(targets)]
    grants = [0.0] * len(neg)
    before = 0.0
    for k in sorted(range(len(neg)), key=neg.__getitem__):
        grants[k] = min(max(budget_mb - before, 0.0), datasets.size[k])
        before += datasets.size[k]
    return grants


# ----------------------------------------------------------------------
# Differential tests.
# ----------------------------------------------------------------------


@st.composite
def jobs(draw, min_size=1):
    """Jobs on a few shared datasets, with tying GPU counts and sizes."""
    sizes = draw(st.lists(SIZES, min_size=1, max_size=3))
    count = draw(st.integers(min_size, 6))
    return [
        Job(
            job_id=f"j{i}",
            model="m",
            dataset=Dataset(f"d{k}", sizes[k]),
            num_gpus=draw(st.integers(1, 8)),
            ideal_throughput_mbps=draw(SIZES),
            total_work_mb=1.0,
        )
        for i, k in enumerate(
            draw(st.integers(0, len(sizes) - 1)) for _ in range(count)
        )
    ]


@settings(max_examples=300, deadline=None)
@given(FLOATS, FLOATS, FLOATS, FLOATS)
def test_perf_model_matches_the_builtin_bodies(ideal, io, cache_mb, d):
    assert outcome(perf_model.hit_ratio, cache_mb, d) == outcome(
        hit_ratio_oracle, cache_mb, d
    )
    assert outcome(perf_model.silod_perf, ideal, io, cache_mb, d) == (
        outcome(silod_perf_oracle, ideal, io, cache_mb, d)
    )
    assert outcome(perf_model.achieved_rate, ideal, cache_mb, io) == (
        outcome(achieved_rate_oracle, ideal, cache_mb, io)
    )


@settings(max_examples=200, deadline=None)
@given(jobs(), NUMBERS, st.integers(1, 9), AMOUNTS, AMOUNTS, AMOUNTS)
def test_estimators_match_the_builtin_bodies(
    jobs, gpus, num_jobs, total_gpus, cache_mb, io_mbps
):
    job = jobs[0]
    assert outcome(linear_compute_estimator, job, gpus) == outcome(
        linear_compute_oracle, job, gpus
    )
    # Whole-number totals make the GPU share tie with the int request.
    for total in (
        ResourceVector(total_gpus, cache_mb, io_mbps),
        ResourceVector(float(job.num_gpus * num_jobs), cache_mb, io_mbps),
    ):
        assert outcome(equal_division, job, num_jobs, total) == outcome(
            equal_division_oracle, job, num_jobs, total
        )


@settings(max_examples=200, deadline=None)
@given(jobs(), st.data())
def test_programme_matches_the_builtin_bodies(jobs, data):
    n = len(jobs)
    per_job = st.lists(AMOUNTS, min_size=n, max_size=n)
    effective = data.draw(st.none() | per_job)
    programme = Programme(
        jobs,
        data.draw(st.lists(NORMS, min_size=n, max_size=n)),
        None if effective is None else {
            job.job_id: eff for job, eff in zip(jobs, effective)
        },
        data.draw(AMOUNTS),
        data.draw(AMOUNTS),
    )
    ds = programme.datasets
    targets = data.draw(per_job)
    budget = data.draw(AMOUNTS)
    assert outcome(ds.cache_plan, targets, budget) == outcome(
        cache_plan_oracle, ds, targets, budget
    )
    cache = data.draw(
        st.lists(AMOUNTS, min_size=len(ds.names), max_size=len(ds.names))
    )
    assert outcome(programme.remote_io, targets, cache) == outcome(
        remote_io_oracle, programme, targets, cache
    )
    f_star = data.draw(st.lists(NUMBERS, min_size=n, max_size=n))
    fixed = data.draw(
        st.just(()) | st.lists(st.none() | SIZES, min_size=n, max_size=n)
    )
    assert outcome(programme.cap_limit, f_star, fixed) == outcome(
        cap_limit_oracle, programme, f_star, fixed
    )
