"""Fixed-capacity sliding-window histograms for the metrics registry.

A :class:`SlidingWindow` keeps the most recent ``capacity`` values of
one scalar signal (a ring buffer: observing past the cap drops the
oldest value) and answers nearest-rank percentile queries
(p50/p95/p99) over the values it holds. Values carry no timestamps.

Everything here is pure Python over appends in observation order, so
the percentiles are a deterministic function of the simulated run: the
same event log produces the same snapshot across reruns. The one
deliberately non-deterministic *signal* is decision latency, whose
samples are wall-clock milliseconds — the window machinery is still
deterministic, the values are not (same carve-out as
``sched_decision.latency_ms``; see ``docs/OBSERVABILITY.md``).

The registry (``repro.obs.registry``) owns the well-known windows the
tracer feeds from the event stream (``repro.obs.tracer.DERIVED_METRICS``);
:data:`WINDOW_NAMES` is the code half of the doc sync in
``tools/check_obs_docs.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from typing import Deque, List, Optional

#: Default sample capacity of one window.
DEFAULT_CAPACITY = 512

#: The well-known windows the tracer feeds, with the unit each carries.
#: Order is documentation order (``docs/OBSERVABILITY.md`` lists exactly
#: these names).
WINDOW_NAMES = (
    "decision_latency_ms",
    "queue_depth",
    "cache_hit_ratio",
    "jct_s",
)

#: Percentiles every snapshot reports, as (label, quantile) pairs.
SNAPSHOT_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def nearest_rank(sorted_samples: List[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample list.

    The ``ceil(q·n)``-th order statistic, clamped into range; returns
    0.0 on an empty list.
    """
    if not sorted_samples:
        return 0.0
    rank = max(
        0,
        min(len(sorted_samples) - 1, math.ceil(q * len(sorted_samples)) - 1),
    )
    return sorted_samples[rank]


class SlidingWindow:
    """A bounded sample window with percentile queries.

    The retained values are also kept in one sorted list, so a
    percentile is an index read. ``bisect.insort`` places a new value
    after its equals and eviction is oldest-first, so the value an
    eviction deletes is always the leftmost of its equals: the list is
    exactly ``sorted(values())``, ties and signed zeros included.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.capacity = int(capacity)
        #: The retained values in observation order; bounded by capacity.
        self._samples: Deque[float] = deque()
        #: The retained values, ascending.
        self._sorted: List[float] = []
        #: Total samples ever observed (survives eviction).
        self.observed_total = 0

    def __len__(self) -> int:
        return len(self._samples)

    def observe(self, value: float) -> None:
        """Record one sample.

        Raises ``ValueError`` on a NaN value, which has no place in a
        sorted order.
        """
        value = float(value)
        if value != value:
            raise ValueError("window samples must not be NaN")
        self.observed_total += 1
        samples = self._samples
        ordered = self._sorted
        if len(samples) == self.capacity:
            del ordered[bisect_left(ordered, samples.popleft())]
        samples.append(value)
        insort(ordered, value)

    def values(self) -> List[float]:
        """The retained sample values, in observation order."""
        return list(self._samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples."""
        return nearest_rank(self._sorted, q)

    def last(self) -> Optional[float]:
        """The most recent sample value, or ``None`` when empty."""
        return self._samples[-1] if self._samples else None

    def clear(self) -> None:
        """Drop every sample and reset the observation counter."""
        self._samples.clear()
        self._sorted.clear()
        self.observed_total = 0

    def snapshot(self) -> dict:
        """Count + percentiles, in a stable key order."""
        ordered = self._sorted
        snap = {
            "count": len(ordered),
            "observed_total": self.observed_total,
        }
        for label, q in SNAPSHOT_QUANTILES:
            snap[label] = nearest_rank(ordered, q)
        return snap
