"""Resource vectors and allocations."""

import pytest

from repro.core import resources


def test_vector_validation():
    with pytest.raises(ValueError):
        resources.ResourceVector(gpus=-1)
    with pytest.raises(ValueError):
        resources.ResourceVector(cache_mb=-1)


def test_vector_arithmetic_and_fit():
    a = resources.ResourceVector(gpus=2, cache_mb=100, remote_io_mbps=10)
    b = resources.ResourceVector(gpus=1, cache_mb=50, remote_io_mbps=5)
    total = a + b
    assert total.gpus == 3
    assert total.cache_mb == 150
    assert total.remote_io_mbps == 15


def test_tetris_weights_inverse_of_totals():
    total = resources.ResourceVector(gpus=8, cache_mb=2048, remote_io_mbps=200)
    weights = resources.tetris_weights(total)
    assert weights[resources.GPU] == pytest.approx(1 / 8)
    assert weights[resources.CACHE] == pytest.approx(1 / 2048)
    assert weights[resources.REMOTE_IO] == pytest.approx(1 / 200)
    # Normalised: the full cluster scores exactly 3 (one per resource).
    assert total.weighted_sum(weights) == pytest.approx(3.0)


def test_tetris_weights_zero_resource():
    total = resources.ResourceVector(gpus=8)
    weights = resources.tetris_weights(total)
    assert weights[resources.CACHE] == 0.0


def test_allocation_grants_and_totals():
    alloc = resources.Allocation()
    alloc.grant_gpus("j1", 2)
    alloc.grant_gpus("j2", 0)
    alloc.grant_remote_io("j1", 50.0)
    alloc.grant_cache("imagenet", 100.0)
    alloc.grant_cache("web", 200.0)
    assert alloc.gpus_of("j1") == 2
    assert alloc.gpus_of("missing") == 0
    assert alloc.cache_of("imagenet") == 100.0
    total = alloc.total()
    assert total.gpus == 2
    assert total.cache_mb == 300.0
    assert total.remote_io_mbps == 50.0


def test_allocation_rejects_negative_grants():
    alloc = resources.Allocation()
    with pytest.raises(ValueError):
        alloc.grant_gpus("j", -1)
    with pytest.raises(ValueError):
        alloc.grant_remote_io("j", -1.0)
    with pytest.raises(ValueError):
        alloc.grant_cache("d", -1.0)


def test_allocation_repr_mentions_grants():
    alloc = resources.Allocation()
    alloc.grant_gpus("j", 1)
    assert "j" in repr(alloc)
