"""Incrementally sorted registry and windows ≡ the sort-everything code.

``tests/obs/registry_oracle.py`` keeps the pre-change registry and
window, which sort on every read. Random operation sequences drive both
side by side; every snapshot must serialise to the same JSON and every
percentile must be the same float, signed zeros included.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, SlidingWindow
from repro.obs.windows import SNAPSHOT_QUANTILES

from .registry_oracle import OracleRegistry, OracleWindow

pytestmark = pytest.mark.obs

#: Few distinct values, so duplicates are common; ±0.0 and ±inf included.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, float("inf"),
                     float("-inf")]),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
#: Cluster scope (None), the empty id, and job ids whose sorted order
#: differs from any natural insertion order.
SCOPES = st.sampled_from([None, None, "", "0", "a", "b", "job-10", "job-2"])
NAMES = st.sampled_from(["zeta", "alpha", "m", "events.job_submit", "a"])
OPS = st.one_of(
    st.tuples(st.just("inc"), NAMES, VALUES, SCOPES),
    st.tuples(st.just("observe"), NAMES, VALUES, SCOPES,
              st.sampled_from([1, 2, 3, 5])),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("clear")),
)


def _same_floats(a: float, b: float) -> bool:
    return repr(a) == repr(b)


def _assert_same(registry: MetricsRegistry, oracle: OracleRegistry) -> None:
    assert json.dumps(registry.snapshot()) == json.dumps(oracle.snapshot())
    assert registry.job_ids() == oracle.job_ids()


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=60))
def test_registry_snapshot_matches_sort_everything_oracle(ops):
    registry, oracle = MetricsRegistry(), OracleRegistry()
    touched = []
    for op in ops:
        kind = op[0]
        if kind == "inc":
            _, name, value, scope = op
            assert _same_floats(registry.inc(name, value, job_id=scope),
                                oracle.inc(name, value, job_id=scope))
        elif kind == "observe":
            _, name, value, scope, capacity = op
            registry.observe(name, value, job_id=scope, capacity=capacity)
            oracle.observe(name, value, job_id=scope, capacity=capacity)
            touched.append((name, scope))
        elif kind == "snapshot":
            _assert_same(registry, oracle)
        else:
            registry.clear()
            oracle.clear()
            touched.clear()
        for name, scope in touched:
            window = registry.window(name, job_id=scope)
            reference = oracle.window(name, job_id=scope)
            assert window.values() == reference.values()
            for _label, q in SNAPSHOT_QUANTILES:
                assert _same_floats(window.percentile(q),
                                    reference.percentile(q))
    _assert_same(registry, oracle)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(VALUES, max_size=80),
    st.sampled_from([1, 2, 3, 4, 7]),
)
def test_window_percentiles_match_sort_everything_oracle(samples, capacity):
    window = SlidingWindow(capacity=capacity)
    oracle = OracleWindow(capacity=capacity)
    for value in samples:
        window.observe(value)
        oracle.observe(value)
        assert window.values() == oracle.values()
        assert list(map(repr, window._sorted)) == list(
            map(repr, sorted(oracle.values()))
        )
        for _label, q in SNAPSHOT_QUANTILES:
            assert _same_floats(window.percentile(q), oracle.percentile(q))
        assert json.dumps(window.snapshot()) == json.dumps(oracle.snapshot())
