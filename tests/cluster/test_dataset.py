"""Dataset and registry behaviour."""

import math

import pytest

from repro.cluster.dataset import Dataset, DatasetRegistry


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset("bad", -1.0)
    with pytest.raises(ValueError):
        Dataset("bad", 100.0, num_items=0)
    for size_mb in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Dataset("bad", size_mb)


def test_item_size():
    d = Dataset("d", 1000.0, num_items=100)
    assert d.item_size_mb == pytest.approx(10.0)


def test_registry_add_and_get():
    registry = DatasetRegistry()
    d = Dataset("imagenet", 1000.0)
    assert registry.add(d) is d
    assert registry.get("imagenet") is d
    assert "imagenet" in registry
    assert registry.find("nope") is None
    with pytest.raises(KeyError):
        registry.get("nope")


def test_registry_rejects_conflicting_redefinition():
    registry = DatasetRegistry()
    registry.add(Dataset("d", 1000.0))
    # Identical re-registration is a no-op.
    registry.add(Dataset("d", 1000.0))
    with pytest.raises(ValueError):
        registry.add(Dataset("d", 2000.0))


def test_registry_iteration_and_total():
    registry = DatasetRegistry()
    registry.add(Dataset("a", 100.0))
    registry.add(Dataset("b", 200.0))
    assert len(registry) == 2
    assert {d.name for d in registry} == {"a", "b"}
    assert sum(d.size_mb for d in registry) == pytest.approx(300.0)
