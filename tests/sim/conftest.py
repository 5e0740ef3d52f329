"""Shared fixtures for the simulator tests."""

import pytest

import repro.sim.fluid
from repro.cache.residency import ArrayResidencyStore, DictResidencyStore

#: The residency stores a fluid run can hold its cache state in: the
#: pure-Python store the simulator builds ("fallback") and the numpy
#: reference store the residency property tests compare it against
#: ("vectorized").
RESIDENCY_STORES = {
    "vectorized": ArrayResidencyStore,
    "fallback": DictResidencyStore,
}


@pytest.fixture
def residency_store(request, monkeypatch):
    """Make every fluid simulator built in the test use the named store.

    Parametrise it indirectly, by a key of :data:`RESIDENCY_STORES`.

    The anchor suites pin one set of results; running them on both
    stores holds the whole simulator, not only single op sequences, to
    the two stores agreeing bit for bit.
    """
    store = RESIDENCY_STORES[request.param]
    monkeypatch.setattr(repro.sim.fluid, "DictResidencyStore", store)
    return store
