"""Curriculum learning (Eq 10, Figure 16)."""

import pytest

from repro.cluster.dataset import Dataset
from repro.workloads.curriculum import (
    ExponentialPacing,
    simulate_curriculum_jct,
)


def test_pacing_validation():
    with pytest.raises(ValueError):
        ExponentialPacing(num_items=100, starting_percent=0.0)
    with pytest.raises(ValueError):
        ExponentialPacing(num_items=100, alpha=1.0)
    with pytest.raises(ValueError):
        ExponentialPacing(num_items=100, step=0)


def test_pacing_grows_exponentially_and_saturates():
    pacing = ExponentialPacing(
        num_items=1000, starting_percent=0.1, alpha=2.0, step=100
    )
    assert pacing.visible_items(0) == 100
    assert pacing.visible_items(99) == 100
    assert pacing.visible_items(100) == 200
    assert pacing.visible_items(200) == 400
    assert pacing.visible_items(10_000) == 1000  # saturated
    with pytest.raises(ValueError):
        pacing.visible_items(-1)


def test_series_fractions_monotone():
    pacing = ExponentialPacing(num_items=1000, step=1000)
    rows = pacing.series(total_iterations=20_000, points=20)
    fractions = [r["fraction_of_data"] for r in rows]
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(100.0)


def test_curriculum_lru_matches_uniform_jct():
    """Figure 16b: under curriculum sampling LRU no longer thrashes and
    both cache policies complete in essentially the same time."""
    dataset = Dataset("imagenet-22k-small", 20_000.0, num_items=2_000)
    pacing = ExponentialPacing(
        num_items=2_000, starting_percent=0.04, alpha=1.5, step=5_000
    )
    kwargs = dict(
        dataset=dataset,
        pacing=pacing,
        total_iterations=60_000,
        cache_mb=10_000.0,
        compute_step_s=0.05,
        remote_io_mbps=100.0,
        seed=9,
    )
    uniform = simulate_curriculum_jct(policy="uniform", **kwargs)
    lru = simulate_curriculum_jct(policy="lru", **kwargs)
    assert lru.jct_s == pytest.approx(uniform.jct_s, rel=0.05)
    assert lru.hit_ratio > 0.3
    assert uniform.hit_ratio > 0.3


def test_curriculum_small_working_set_is_cache_friendly():
    """Early iterations sample a small prefix: with a cache larger than
    the prefix, hits dominate even for LRU."""
    dataset = Dataset("d", 10_000.0, num_items=1_000)
    pacing = ExponentialPacing(
        num_items=1_000, starting_percent=0.1, alpha=2.0, step=100_000
    )
    result = simulate_curriculum_jct(
        dataset=dataset,
        pacing=pacing,
        total_iterations=5_000,
        cache_mb=2_000.0,  # twice the initial working set
        policy="lru",
        compute_step_s=0.01,
        remote_io_mbps=50.0,
    )
    assert result.hit_ratio > 0.8


def test_simulate_validation():
    dataset = Dataset("d", 1000.0, num_items=100)
    pacing = ExponentialPacing(num_items=100)
    with pytest.raises(ValueError):
        simulate_curriculum_jct(
            dataset, pacing, 10, 100.0, "fifo", 0.1, 10.0
        )
    with pytest.raises(ValueError):
        simulate_curriculum_jct(
            dataset, pacing, 0, 100.0, "lru", 0.1, 10.0
        )
