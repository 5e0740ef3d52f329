"""Small order statistics shared by the benchmark's processes."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values (``q`` in 0..1)."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def weighted_rank(pairs: Sequence[Tuple[float, float]], q: float) -> float:
    """Smallest value whose cumulative weight reaches ``q`` of the total;
    ``pairs`` are (value, weight) sorted by value."""
    total = sum(w for _, w in pairs)
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= q * total:
            return value
    return pairs[-1][0] if pairs else math.nan


def percentiles_ms(
    samples_s: Sequence[float], weights: Optional[Sequence[float]] = None
) -> Dict[str, float]:
    """p50/p99 in milliseconds plus the sample count (optionally
    weighted, e.g. by the events each sample covered)."""
    if weights is None:
        weights = [1.0] * len(samples_s)
    pairs = sorted(zip(samples_s, weights))
    return {
        "p50": weighted_rank(pairs, 0.50) * 1000.0,
        "p99": weighted_rank(pairs, 0.99) * 1000.0,
        "count": len(pairs),
    }
