"""The residency store against its independent reference, bitwise.

The fluid simulator keeps per-key cache residency in a
:class:`~repro.cache.residency.DictResidencyStore`. The columnar
:class:`~repro.cache.residency.ArrayResidencyStore` implements the same
contract with numpy and is kept only as the reference these
hypothesis tests hold the dict store to: any interleaving of
mutations must leave both stores with byte-for-byte equal keys, values
and aggregates.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache.residency import ArrayResidencyStore, DictResidencyStore

pytestmark = pytest.mark.perf


def bitwise(x):
    """A hashable, bit-exact view of a store's answers.

    Floats are rendered with ``hex()`` so ``0.1 + 0.2`` and ``0.3``
    differ; NaN compares equal to itself, which ``==`` on raw floats
    would not.
    """
    if isinstance(x, (list, tuple)):
        return tuple(bitwise(v) for v in x)
    if isinstance(x, float):
        return "nan" if math.isnan(x) else x.hex()
    return x


RESIDENCY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ensure"), st.integers(0, 7),
                  st.floats(1.0, 1e6, allow_nan=False)),
        st.tuples(st.just("set_resident"), st.integers(0, 7),
                  st.floats(0.0, 1e6, allow_nan=False)),
        st.tuples(st.just("set_target"), st.integers(0, 7),
                  st.floats(0.0, 1e6, allow_nan=False)),
        st.tuples(st.just("pop"), st.integers(0, 7), st.just(0.0)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=RESIDENCY_OPS)
def test_residency_stores_stay_in_lockstep(ops):
    # The simulator's dict store must be observationally identical to
    # the array-backed reference under any interleaving of mutations.
    dict_store, array_store = DictResidencyStore(), ArrayResidencyStore()
    for op, idx, value in ops:
        key = f"k{idx}"
        for store in (dict_store, array_store):
            if op == "ensure":
                store.ensure(key, value)
            elif op == "set_resident" and key in store:
                store.set_resident_mb(key, value)
            elif op == "set_target" and key in store:
                store.set_target_mb(key, value)
            elif op == "pop":
                store.pop(key)
    assert dict_store.keys() == array_store.keys()
    assert len(dict_store) == len(array_store)
    for key in dict_store.keys():
        assert bitwise(dict_store.snapshot(key)) == bitwise(
            array_store.snapshot(key)
        )
    assert bitwise(dict_store.total_resident_mb()) == bitwise(
        array_store.total_resident_mb()
    )
    assert dict_store.stale_first_keys() == array_store.stale_first_keys()
    assert bitwise(dict_store.reclaim_candidates()) == bitwise(
        array_store.reclaim_candidates()
    )
    # The candidates are the stale-first walk minus the keys a reclaim
    # would skip (resident <= target), with the walk's own values.
    assert dict_store.reclaim_candidates() == [
        (key, dict_store.resident_mb(key), dict_store.target_mb(key))
        for key in dict_store.stale_first_keys()
        if dict_store.resident_mb(key) > dict_store.target_mb(key)
    ]


@settings(max_examples=40, deadline=None)
@given(
    ops=RESIDENCY_OPS,
    targets=st.dictionaries(
        st.sampled_from([f"k{i}" for i in range(8)]),
        st.floats(0.0, 1e6, allow_nan=False),
        max_size=8,
    ),
)
def test_apply_targets_is_backend_identical(ops, targets):
    assume(targets)
    dict_store, array_store = DictResidencyStore(), ArrayResidencyStore()
    for op, idx, value in ops:
        key = f"k{idx}"
        for store in (dict_store, array_store):
            if op == "ensure":
                store.ensure(key, value)
            elif op == "set_resident" and key in store:
                store.set_resident_mb(key, value)
    sizes = {key: 2.0 * mb for key, mb in targets.items()}
    shrunk_dict = dict_store.apply_targets(dict(targets), dict(sizes))
    shrunk_array = array_store.apply_targets(dict(targets), dict(sizes))
    assert bitwise(shrunk_dict) == bitwise(shrunk_array)
    for key in targets:
        assert bitwise(dict_store.snapshot(key)) == bitwise(
            array_store.snapshot(key)
        )
