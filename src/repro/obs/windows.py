"""Fixed-capacity sliding-window histograms for the metrics registry.

A :class:`SlidingWindow` keeps the most recent ``capacity`` samples of
one scalar signal, each stamped with the *simulation* time it was
observed at, and answers nearest-rank percentile queries (p50/p95/p99)
over the samples still inside the window. Two eviction rules compose:

* **capacity** — at most ``capacity`` samples are retained; observing
  past the cap drops the oldest sample (a ring buffer);
* **horizon** — when ``horizon_s`` is set, samples older than
  ``ts_s - horizon_s`` relative to the *latest* observation are
  dropped first.

Everything here is pure Python over ``ts_s``-ordered appends, so the
percentiles are a deterministic function of the simulated run: the same
event log produces the same snapshot with or without numpy
(``REPRO_NO_NUMPY=1``) and across reruns. The one deliberately
non-deterministic *signal* is decision latency, whose samples are
wall-clock milliseconds — the window machinery is still deterministic,
the values are not (same carve-out as ``sched_decision.latency_ms``;
see ``docs/OBSERVABILITY.md``).

The registry (``repro.obs.registry``) owns the well-known windows fed
by the typed tracer helpers; :data:`WINDOW_NAMES` is the code half of
the doc sync in ``tools/check_obs_docs.py``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Tuple

#: Default sample capacity of one window.
DEFAULT_CAPACITY = 512

#: The well-known windows the typed tracer helpers feed, with the unit
#: each carries. Order is documentation order (``docs/OBSERVABILITY.md``
#: lists exactly these names).
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
    """A bounded, time-stamped sample window with percentile queries."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        horizon_s: Optional[float] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        if horizon_s is not None and horizon_s <= 0:
            raise ValueError("window horizon must be positive when set")
        self.capacity = int(capacity)
        self.horizon_s = horizon_s
        #: (ts_s, value) pairs in observation order; bounded by capacity.
        self._samples: Deque[Tuple[float, float]] = deque(
            maxlen=self.capacity
        )
        #: Total samples ever observed (survives eviction).
        self.observed_total = 0

    def __len__(self) -> int:
        return len(self._samples)

    def observe(self, ts_s: float, value: float) -> None:
        """Record one sample at simulation time ``ts_s``."""
        self.observed_total += 1
        if self.horizon_s is not None:
            cutoff = ts_s - self.horizon_s
            while self._samples and self._samples[0][0] < cutoff:
                self._samples.popleft()
        self._samples.append((float(ts_s), float(value)))

    def values(self) -> List[float]:
        """The retained sample values, in observation order."""
        return [value for _, value in self._samples]

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples."""
        return nearest_rank(sorted(self.values()), q)

    def last(self) -> Optional[float]:
        """The most recent sample value, or ``None`` when empty."""
        return self._samples[-1][1] if self._samples else None

    def clear(self) -> None:
        """Drop every sample and reset the observation counter."""
        self._samples.clear()
        self.observed_total = 0

    def snapshot(self) -> dict:
        """Count + percentiles, in a stable key order."""
        ordered = sorted(self.values())
        snap = {
            "count": len(ordered),
            "observed_total": self.observed_total,
        }
        for label, q in SNAPSHOT_QUANTILES:
            snap[label] = nearest_rank(ordered, q)
        return snap
