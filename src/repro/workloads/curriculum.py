"""Curriculum learning (§7.4, Equation 10, Figure 16).

Curriculum training sorts data by learning difficulty and samples each
batch uniformly from the prefix admitted by a *pacing function*; there is
no epoch. Equation 10's exponential pacing:

    g(i) = min(starting_percent * alpha^floor(i / step), 1) * N

SiloDPerf's once-per-epoch assumption breaks here, but the expected
throughput model (Eq 4) still holds for both uniform caching and LRU
because every visible item is equally likely to be sampled — and LRU no
longer thrashes, since a newly cached item can be re-sampled immediately
(Figure 16b: LRU ~ uniform cache, ~367 min either way).

:func:`simulate_curriculum_jct` runs an item-level simulation of a
curriculum job over either cache policy and returns the JCT.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List

from repro.cache.items import LruItemCache, UniformItemCache
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import LOCAL_READ_MBPS


@dataclasses.dataclass(frozen=True)
class ExponentialPacing:
    """Eq 10's pacing function over a dataset of ``num_items`` items."""

    num_items: int
    starting_percent: float = 0.04
    alpha: float = 1.5
    step: int = 50_000

    def __post_init__(self) -> None:
        if not 0 < self.starting_percent <= 1:
            raise ValueError("starting_percent must lie in (0, 1]")
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1 for a growing curriculum")
        if self.step <= 0:
            raise ValueError("step must be positive")

    def visible_items(self, iteration: int) -> int:
        """g(i): number of (easiest-first) items visible at ``iteration``."""
        if iteration < 0:
            raise ValueError("iteration must be non-negative")
        fraction = min(
            1.0,
            self.starting_percent * self.alpha ** (iteration // self.step),
        )
        return max(1, int(fraction * self.num_items))

    def visible_fraction(self, iteration: int) -> float:
        """g(i) / N."""
        return self.visible_items(iteration) / self.num_items

    def series(self, total_iterations: int, points: int = 100) -> List[dict]:
        """Figure 16a as a data series."""
        rows = []
        for k in range(points + 1):
            i = int(total_iterations * k / points)
            rows.append(
                {
                    "iteration": i,
                    "fraction_of_data": self.visible_fraction(i) * 100.0,
                }
            )
        return rows


@dataclasses.dataclass
class CurriculumResult:
    """Outcome of a curriculum-learning cache simulation."""

    jct_s: float
    hit_ratio: float
    iterations: int


def simulate_curriculum_jct(
    dataset: Dataset,
    pacing: ExponentialPacing,
    total_iterations: int,
    cache_mb: float,
    policy: str,
    compute_step_s: float,
    remote_io_mbps: float,
    seed: int = 0,
) -> CurriculumResult:
    """Item-level JCT of one curriculum job under a cache policy.

    ``policy`` is ``"uniform"`` or ``"lru"``. Each iteration samples one
    item uniformly from the pacing prefix; IO and compute pipeline, so
    per-iteration time is ``max(compute_step_s, io_time)``, with a hit
    read from local disk at :data:`~repro.cluster.hardware.LOCAL_READ_MBPS`.
    """
    if policy not in ("uniform", "lru"):
        raise ValueError("policy must be 'uniform' or 'lru'")
    if total_iterations <= 0:
        raise ValueError("total_iterations must be positive")
    rng = random.Random(seed)
    item_size_mb = dataset.item_size_mb
    capacity_items = int(cache_mb / item_size_mb)
    if policy == "uniform":
        cache = UniformItemCache(capacity_items, rng=random.Random(seed + 1))
    else:
        cache = LruItemCache(capacity_items)
    fetch_s = item_size_mb / remote_io_mbps
    local_s = item_size_mb / LOCAL_READ_MBPS

    clock = 0.0
    hits = 0
    # Pacing changes only every `pacing.step` iterations; process in runs.
    i = 0
    while i < total_iterations:
        run_end = min(total_iterations, (i // pacing.step + 1) * pacing.step)
        visible = pacing.visible_items(i)
        for _ in range(i, run_end):
            hit = cache.access(rng.randrange(visible))
            hits += int(hit)
            clock += max(compute_step_s, local_s if hit else fetch_s)
        i = run_end
    return CurriculumResult(
        jct_s=clock,
        hit_ratio=hits / total_iterations,
        iterations=total_iterations,
    )
