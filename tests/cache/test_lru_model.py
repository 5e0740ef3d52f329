"""Validate the LRU thrashing closed form against item-level simulation.

The fluid simulator models LRU hit ratios with
``h(gamma) = gamma + (1 - gamma) ln(1 - gamma)`` (``gamma`` = stack share /
dataset). These tests drive an actual :class:`LruItemCache` with shuffled
once-per-epoch access streams and check the measured steady-state hit
ratio lands on the model.
"""

import math
import random

import pytest

from repro.cache.items import LruItemCache, UniformItemCache
from repro.cache.lru import lru_epoch_hit_ratio, shared_lru_shares
from repro.core.perf_model import hit_ratio


def epoch_stream(num_items, num_epochs, rng):
    for _ in range(num_epochs):
        order = list(range(num_items))
        rng.shuffle(order)
        yield from order


def measured_lru_hit_ratio(num_items, capacity, epochs=8, seed=3):
    rng = random.Random(seed)
    cache = LruItemCache(capacity)
    hits = 0
    total = 0
    for i, item in enumerate(epoch_stream(num_items, epochs, rng)):
        hit = cache.access(item)
        if i >= 2 * num_items:  # skip two warmup epochs
            hits += int(hit)
            total += 1
    return hits / total


@pytest.mark.parametrize("gamma", [0.2, 0.4, 0.6, 0.8])
def test_closed_form_matches_item_simulation(gamma):
    num_items = 3000
    capacity = int(gamma * num_items)
    measured = measured_lru_hit_ratio(num_items, capacity)
    predicted = lru_epoch_hit_ratio(capacity, num_items)
    assert measured == pytest.approx(predicted, abs=0.03)


def test_closed_form_boundaries():
    assert lru_epoch_hit_ratio(0.0, 100.0) == 0.0
    assert lru_epoch_hit_ratio(100.0, 100.0) == 1.0
    assert lru_epoch_hit_ratio(200.0, 100.0) == 1.0


def test_closed_form_small_share_is_quadratic():
    gamma = 0.01
    h = lru_epoch_hit_ratio(gamma * 1000, 1000)
    assert h == pytest.approx(gamma**2 / 2, rel=0.05)


def test_lru_always_below_uniform():
    """Thrashing: LRU never beats uniform caching at equal size (§2.2)."""
    for gamma in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]:
        lru = lru_epoch_hit_ratio(gamma * 1000, 1000)
        uniform = hit_ratio(gamma * 1000, 1000)
        assert lru < uniform


def test_closed_form_monotone_in_share():
    values = [
        lru_epoch_hit_ratio(g * 500.0, 500.0)
        for g in [0.0, 0.25, 0.5, 0.75, 1.0]
    ]
    assert values == sorted(values)
    assert not math.isnan(values[2])


def test_uniform_item_cache_matches_c_over_d():
    """Uniform caching's expected hit ratio is exactly c/d after warmup."""
    num_items, capacity = 2000, 800
    rng = random.Random(5)
    cache = UniformItemCache(capacity, rng=random.Random(6))
    hits = total = 0
    for i, item in enumerate(epoch_stream(num_items, 6, rng)):
        hit = cache.access(item)
        if i >= num_items:  # after the first (cold) epoch
            hits += int(hit)
            total += 1
    assert hits / total == pytest.approx(capacity / num_items, abs=0.02)


def test_shared_shares_proportional_to_rates():
    shares = shared_lru_shares({"fast": 300.0, "slow": 100.0}, 1000.0)
    assert shares["fast"] == pytest.approx(750.0)
    assert shares["slow"] == pytest.approx(250.0)
    assert shared_lru_shares({"a": 0.0}, 1000.0) == {"a": 0.0}


def test_shared_pool_favors_fast_jobs_in_simulation():
    """Two jobs interleaved 3:1 in one LRU pool: the fast job's measured
    hit ratio exceeds the slow job's (the paper's §7.1.2 observation)."""
    rng = random.Random(11)
    num_items = 1500
    cache = LruItemCache(900)
    fast = epoch_stream(num_items, 12, random.Random(1))
    slow = epoch_stream(num_items, 4, random.Random(2))
    hits = {"fast": 0, "slow": 0}
    total = {"fast": 0, "slow": 0}
    for step in range(num_items * 12):
        for _ in range(3):
            item = next(fast, None)
            if item is not None:
                hit = cache.access(("fast", item))
                if step > num_items:
                    hits["fast"] += int(hit)
                    total["fast"] += 1
        item = next(slow, None)
        if item is not None:
            hit = cache.access(("slow", item))
            if step > num_items:
                hits["slow"] += int(hit)
                total["slow"] += 1
    ratio_fast = hits["fast"] / max(1, total["fast"])
    ratio_slow = hits["slow"] / max(1, total["slow"])
    assert ratio_fast > ratio_slow
