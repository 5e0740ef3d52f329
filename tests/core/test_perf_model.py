"""The closed-form performance model (Equations 1-5)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import perf_model

sizes = st.floats(min_value=1.0, max_value=1e8, allow_nan=False)
rates = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)


def test_hit_ratio_is_c_over_d():
    assert perf_model.hit_ratio(500.0, 1000.0) == pytest.approx(0.5)
    assert perf_model.hit_ratio(2000.0, 1000.0) == 1.0
    assert perf_model.miss_ratio(250.0, 1000.0) == pytest.approx(0.75)


def test_eq2_remote_io_demand():
    # f = 100 MB/s, half the dataset cached -> 50 MB/s from remote.
    assert perf_model.remote_io_demand(100.0, 500.0, 1000.0) == (
        pytest.approx(50.0)
    )


def test_eq3_io_throughput():
    # b = 50 MB/s with a 50% hit ratio supports f = 100 MB/s.
    assert perf_model.io_throughput(50.0, 500.0, 1000.0) == pytest.approx(
        100.0
    )
    # Fully cached: unbounded loading.
    assert math.isinf(perf_model.io_throughput(0.0, 1000.0, 1000.0))


def test_eq4_silod_perf_bottleneck_selection():
    # IO-bound: min picks the IO side.
    assert perf_model.silod_perf(114.0, 25.0, 0.0, 1000.0) == pytest.approx(
        25.0
    )
    # Compute-bound: min picks f*.
    assert perf_model.silod_perf(114.0, 500.0, 0.0, 1000.0) == pytest.approx(
        114.0
    )
    # Fully cached: f*.
    assert perf_model.silod_perf(114.0, 0.0, 1000.0, 1000.0) == (
        pytest.approx(114.0)
    )


def test_eq5_cache_efficiency_matches_figure6_headliners():
    # ResNet-50 / ImageNet-1k: 114 MB/s over 143 GB ~ 0.80 MB/s per GB.
    eff = perf_model.cache_efficiency(114.0, 143.0 * 1024) * 1024
    assert eff == pytest.approx(0.80, abs=0.01)
    # BERT / Web Search: 2 MB/s over 20.9 TB ~ 9.3e-5 MB/s per GB.
    eff = perf_model.cache_efficiency(2.0, 20.9 * 1024 * 1024) * 1024
    assert eff == pytest.approx(9.5e-5, rel=0.05)


def test_dataset_cache_efficiency_sums_over_sharing_jobs():
    single = perf_model.cache_efficiency(100.0, 1000.0)
    shared = perf_model.dataset_cache_efficiency([100.0, 50.0], 1000.0)
    assert shared == pytest.approx(single * 1.5)


def test_input_validation():
    with pytest.raises(ValueError):
        perf_model.hit_ratio(-1.0, 100.0)
    with pytest.raises(ValueError):
        perf_model.hit_ratio(1.0, 0.0)
    with pytest.raises(ValueError):
        perf_model.io_throughput(-1.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        perf_model.remote_io_demand(-1.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        perf_model.cache_efficiency(-1.0, 100.0)


def test_achieved_rate_mirrors_eq4():
    assert perf_model.achieved_rate(100.0, 0.5, 20.0) == pytest.approx(40.0)
    assert perf_model.achieved_rate(100.0, 0.5, 80.0) == pytest.approx(100.0)
    # Full hit: no remote demand, compute-bound at f* even with no grant.
    assert perf_model.achieved_rate(100.0, 1.0, 0.0) == pytest.approx(100.0)
    assert perf_model.achieved_rate(100.0, 0.0, 30.0) == pytest.approx(30.0)


# ----------------------------------------------------------------------
# Property-based invariants of the model.
# ----------------------------------------------------------------------


@given(f=rates, c=rates, d=sizes, b=rates)
def test_throughput_never_exceeds_compute_bound(f, c, d, b):
    assert perf_model.silod_perf(f, b, c, d) <= f + 1e-9
    # The hit-ratio form is the same formula, bit for bit.
    assert perf_model.achieved_rate(
        f, perf_model.hit_ratio(c, d), b
    ) == perf_model.silod_perf(f, b, c, d)


@given(c=rates, d=sizes, b=rates)
def test_eq2_eq3_are_inverses(c, d, b):
    """IOPerf(demand(f)) == f whenever the dataset is not fully cached.

    The model counts a miss ratio within ``_EPS`` of zero as fully
    cached (IOPerf is ``inf`` there), e.g. ``c = 1.0`` against
    ``d = 1.0000000000000002``.
    """
    if perf_model.miss_ratio(c, d) <= perf_model._EPS:
        return
    f = 123.4
    demand = perf_model.remote_io_demand(f, c, d)
    assert perf_model.io_throughput(demand, c, d) == pytest.approx(f)


@given(d=sizes, b=rates, f=st.floats(min_value=1.0, max_value=1e5))
def test_more_cache_never_hurts(d, b, f):
    lo = perf_model.silod_perf(f, b, 0.25 * d, d)
    hi = perf_model.silod_perf(f, b, 0.75 * d, d)
    assert hi >= lo - 1e-9


@given(d=sizes, c=rates, f=st.floats(min_value=1.0, max_value=1e5))
def test_more_io_never_hurts(d, c, f):
    lo = perf_model.silod_perf(f, 10.0, c, d)
    hi = perf_model.silod_perf(f, 20.0, c, d)
    assert hi >= lo - 1e-9


@given(d=sizes, f=st.floats(min_value=1.0, max_value=1e5))
def test_cache_efficiency_is_marginal_io_saving(d, f):
    """Eq 5 equals the finite-difference derivative of Eq 2 at f*."""
    c = 0.3 * d
    delta = d * 1e-6
    saved = perf_model.remote_io_demand(f, c, d) - perf_model.remote_io_demand(
        f, c + delta, d
    )
    assert saved / delta == pytest.approx(
        perf_model.cache_efficiency(f, d), rel=1e-4
    )
