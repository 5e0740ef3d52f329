"""Remote-IO division primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.policies import io_share

demand_dicts = st.dictionaries(
    st.text(min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    min_size=0,
    max_size=12,
)


def test_waterfill_satisfies_all_when_capacity_suffices():
    grants = io_share.max_min_waterfill({"a": 10, "b": 20}, 100)
    assert grants == {"a": 10, "b": 20}


def test_waterfill_equalises_when_scarce():
    grants = io_share.max_min_waterfill({"a": 100, "b": 100, "c": 100}, 90)
    assert grants["a"] == pytest.approx(30)
    assert grants["b"] == pytest.approx(30)
    assert grants["c"] == pytest.approx(30)


def test_waterfill_small_demands_fully_served_first():
    # The paper's micro-benchmark pattern: BERT's 8 MB/s is served in
    # full, the rest split what remains.
    demands = {"bert": 8, "rn1": 114, "rn2": 114, "eff1": 69, "eff2": 69}
    grants = io_share.max_min_waterfill(demands, 200)
    assert grants["bert"] == pytest.approx(8)
    assert grants["rn1"] == pytest.approx(48)
    assert grants["eff1"] == pytest.approx(48)


def test_priority_fill_respects_order():
    grants = io_share.priority_fill(
        ["first", "second", "third"],
        {"first": 80, "second": 80, "third": 80},
        100,
    )
    assert grants["first"] == 80
    assert grants["second"] == 20
    assert grants["third"] == 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        io_share.max_min_waterfill({"a": 1}, -1)
    with pytest.raises(ValueError):
        io_share.priority_fill(["a"], {"a": 1}, -1)


@given(demands=demand_dicts, capacity=st.floats(min_value=0, max_value=1e5))
def test_waterfill_invariants(demands, capacity):
    """Never over-grant, never exceed demand, work-conserving."""
    grants = io_share.max_min_waterfill(demands, capacity)
    assert set(grants) == set(demands)
    total = sum(grants.values())
    assert total <= capacity + 1e-6
    for job_id, grant in grants.items():
        assert 0 <= grant <= demands[job_id] + 1e-9
    # Work-conserving: leftover capacity implies every demand was met.
    if total < capacity - 1e-6:
        for job_id in demands:
            assert grants[job_id] == pytest.approx(demands[job_id])


@given(demands=demand_dicts, capacity=st.floats(min_value=0, max_value=1e5))
def test_waterfill_is_max_min_fair(demands, capacity):
    """No job can gain without a smaller-granted job losing."""
    grants = io_share.max_min_waterfill(demands, capacity)
    unsatisfied = [
        j for j in demands if grants[j] < demands[j] - 1e-6
    ]
    if not unsatisfied:
        return
    # All unsatisfied jobs receive (nearly) the same grant, which is the
    # maximum grant among them (the waterline).
    values = [grants[j] for j in unsatisfied]
    assert max(values) - min(values) <= 1e-6 * max(1.0, max(values))
