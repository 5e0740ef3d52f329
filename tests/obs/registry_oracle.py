"""Reference registry, window and tracer for equivalence tests.

:class:`OracleRegistry` and :class:`OracleWindow` are the registry and
window code as it stood before scopes and window samples were kept
sorted incrementally: every snapshot sorts every ``(scope, name)`` key
and every percentile sorts the retained samples. One change: the
snapshot's ``jobs`` map is sorted by id at the end, as the registry's
docstring has always promised (the old code let a job without counters
land out of order). :class:`OracleTracer` is the tracer's per-event
counting as it stood before it wrote the registry's scope dicts itself.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.tracer import COUNTER, DERIVED_METRICS
from repro.obs.windows import (
    DEFAULT_CAPACITY,
    SNAPSHOT_QUANTILES,
    nearest_rank,
)


class OracleWindow:
    """Deque-only sliding window; sorts on every read."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = int(capacity)
        self._samples: deque = deque(maxlen=self.capacity)
        self.observed_total = 0

    def observe(self, value: float) -> None:
        self.observed_total += 1
        self._samples.append(float(value))

    def values(self) -> List[float]:
        return list(self._samples)

    def percentile(self, q: float) -> float:
        return nearest_rank(sorted(self.values()), q)

    def snapshot(self) -> dict:
        ordered = sorted(self.values())
        snap = {"count": len(ordered), "observed_total": self.observed_total}
        for label, q in SNAPSHOT_QUANTILES:
            snap[label] = nearest_rank(ordered, q)
        return snap


Key = Tuple[Optional[str], str]


class OracleRegistry:
    """Flat ``(scope, name)``-keyed registry; sorts on every snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[Key, float] = {}
        self._windows: Dict[Key, OracleWindow] = {}

    def inc(self, name: str, value: float = 1.0,
            job_id: Optional[str] = None) -> float:
        key = (job_id, name)
        total = self._counters.get(key, 0.0) + value
        self._counters[key] = total
        return total

    def observe(self, name: str, value: float,
                job_id: Optional[str] = None,
                capacity: int = DEFAULT_CAPACITY) -> None:
        key = (job_id, name)
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = OracleWindow(capacity=capacity)
        window.observe(value)

    def window(self, name: str,
               job_id: Optional[str] = None) -> Optional[OracleWindow]:
        return self._windows.get((job_id, name))

    def job_ids(self) -> list:
        return sorted({
            scope
            for scope, _name in (*self._counters, *self._windows)
            if scope is not None
        })

    def snapshot(self) -> dict:
        out: dict = {
            "schema_version": METRICS_SCHEMA_VERSION,
            "cluster": {"counters": {}},
            "jobs": {},
        }

        def _bucket(scope: Optional[str]) -> dict:
            if scope is None:
                return out["cluster"]
            return out["jobs"].setdefault(scope, {"counters": {}})

        def _order(kv):
            return (kv[0][0] or "", kv[0][1])

        for (scope, name), value in sorted(self._counters.items(),
                                           key=_order):
            _bucket(scope)["counters"][name] = value
        for (scope, name), window in sorted(self._windows.items(),
                                            key=_order):
            _bucket(scope).setdefault("windows", {})[name] = (
                window.snapshot()
            )
        # The jobs-order fix: buckets are created pass by pass, so sort
        # the finished map by id.
        out["jobs"] = dict(sorted(out["jobs"].items()))
        return out

    def clear(self) -> None:
        self._counters.clear()
        self._windows.clear()


class OracleTracer:
    """The tracer's emission as it stood before it wrote scope dicts.

    Each event makes two :meth:`MetricsRegistry.inc` calls (the
    cluster ``events_total`` and ``events.<type>`` counters), a third
    for the job's ``events.<type>`` when the event names a job, then one
    ``inc`` or ``observe`` per :data:`DERIVED_METRICS` row, on a real
    registry. Kept events are ``(ts_s, etype, job_id, fields, seq)``
    tuples.
    """

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.events: List[tuple] = []
        self.metrics = MetricsRegistry()
        self._seq = 0
        self._max_events = max_events
        self.dropped = 0

    def emit(self, ts_s: float, etype: str,
             job_id: Optional[str] = None, **fields) -> None:
        self._seq += 1
        metrics = self.metrics
        metrics.inc("events_total")
        name = f"events.{etype}"
        metrics.inc(name)
        if job_id is not None:
            metrics.inc(name, job_id=job_id)
        for metric, kind, value, per_job in DERIVED_METRICS.get(etype, ()):
            amount = value(fields)
            if amount is None:
                continue
            scope = job_id if per_job else None
            if kind == COUNTER:
                metrics.inc(metric, amount, job_id=scope)
            else:
                metrics.observe(metric, amount, job_id=scope)
        if (self._max_events is not None
                and len(self.events) >= self._max_events):
            self.dropped += 1
            return
        self.events.append((ts_s, etype, job_id, fields, self._seq))
