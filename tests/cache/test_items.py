"""Item-granularity caches."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.items import LruItemCache, UniformItemCache


class TestUniformItemCache:
    def test_admits_until_capacity_then_stops(self):
        cache = UniformItemCache(2, rng=random.Random(0))
        assert not cache.access("a")
        assert not cache.access("b")
        assert not cache.access("c")  # full: not admitted
        assert cache.access("a")
        assert cache.access("b")
        assert not cache.access("c")  # still not cached
        assert cache.size == 2

    def test_never_evicts_on_access(self):
        cache = UniformItemCache(1, rng=random.Random(0))
        cache.access("a")
        for item in ["b", "c", "d"]:
            cache.access(item)
        assert "a" in cache

    def test_resize_shrink_evicts_randomly(self):
        cache = UniformItemCache(100, rng=random.Random(7))
        for i in range(100):
            cache.access(i)
        cache.resize(40)
        assert cache.size == 40
        assert cache.capacity == 40
        # Survivors are a subset of the original items.
        assert cache.snapshot() <= set(range(100))

    def test_resize_grow_keeps_items(self):
        cache = UniformItemCache(2, rng=random.Random(0))
        cache.access("a")
        cache.resize(10)
        assert "a" in cache
        assert cache.capacity == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformItemCache(-1, rng=random.Random(0))
        cache = UniformItemCache(1, rng=random.Random(0))
        with pytest.raises(ValueError):
            cache.resize(-2)


class TestLruItemCache:
    def test_evicts_least_recently_used(self):
        cache = LruItemCache(2)
        cache.access("a")
        cache.access("b")
        cache.access("c")  # evicts a
        assert "a" not in cache
        assert "b" in cache
        assert "c" in cache

    def test_hit_refreshes_recency(self):
        cache = LruItemCache(2)
        cache.access("a")
        cache.access("b")
        assert cache.access("a")  # refresh a
        cache.access("c")  # evicts b, not a
        assert "a" in cache
        assert "b" not in cache

    def test_zero_capacity_never_caches(self):
        cache = LruItemCache(0)
        assert not cache.access("a")
        assert cache.size == 0

    def test_resize_shrink_drops_lru_end(self):
        cache = LruItemCache(3)
        for item in ["a", "b", "c"]:
            cache.access(item)
        cache.resize(1)
        assert cache.snapshot() == {"c"}


@given(
    capacity=st.integers(min_value=0, max_value=50),
    accesses=st.lists(st.integers(min_value=0, max_value=99), max_size=300),
)
@settings(max_examples=50)
def test_caches_never_exceed_capacity(capacity, accesses):
    for cache in (
        UniformItemCache(capacity, rng=random.Random(0)),
        LruItemCache(capacity),
    ):
        for item in accesses:
            cache.access(item)
            assert cache.size <= capacity


@given(
    accesses=st.lists(
        st.integers(min_value=0, max_value=20), min_size=1, max_size=200
    )
)
@settings(max_examples=50)
def test_infinite_capacity_caches_behave_identically(accesses):
    """With room for everything, uniform and LRU give identical hits."""
    uniform = UniformItemCache(1000, rng=random.Random(0))
    lru = LruItemCache(1000)
    for item in accesses:
        assert uniform.access(item) == lru.access(item)


@given(
    indices=st.sets(
        st.integers(min_value=0, max_value=200_000), min_size=1, max_size=300
    ),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    key=st.text(min_size=1, max_size=8),
)
@settings(max_examples=200)
def test_uniform_evictions_ignore_the_key_wrapper(indices, data, seed, key):
    """A cache of bare indices evicts what a cache of ``(key, i)`` does.

    ``resize`` sorts candidates by ``repr``; with one key per cache,
    ``repr((key, i))`` orders exactly as ``repr(i)``, so the same seed
    draws the same victims. The minibatch emulator's per-key caches
    rely on this to hold bare indices.
    """
    capacity = data.draw(st.integers(min_value=0, max_value=len(indices)))
    bare = UniformItemCache(len(indices), rng=random.Random(seed))
    keyed = UniformItemCache(len(indices), rng=random.Random(seed))
    for i in indices:
        bare.access(i)
        keyed.access((key, i))
    bare.resize(capacity)
    keyed.resize(capacity)
    assert {i for _, i in keyed.snapshot()} == bare.snapshot()
