"""The structured event tracer and its free no-op variant.

``Tracer`` records :class:`~repro.obs.events.Event` objects in emission
order and keeps a :class:`~repro.obs.registry.MetricsRegistry` updated
alongside. ``NullTracer`` (the module-level ``NULL_TRACER`` singleton)
is the default everywhere: its ``enabled`` flag is ``False`` and every
emit is a no-op, so instrumented hot paths guard with one attribute
check::

    tr = self._tracer
    if tr.enabled:
        tr.emit(
            self.clock_s, ev.CACHE_ADMIT,
            key=key, delta_mb=delta_mb, resident_mb=resident_mb, via="miss",
        )

and pay essentially nothing when tracing is off (the <5% ``matrix``
wall-clock budget in the acceptance criteria).

``emit`` is the one way to produce an event. Each call site passes
every field of its type's :data:`~repro.obs.events.EVENT_FIELDS` entry
as an explicit keyword, in schema order, and lint rule ``OBS002`` checks
the set statically, so the JSONL log stays machine-parseable and
``docs/OBSERVABILITY.md`` stays truthful. The registry metrics an event
implies (:data:`DERIVED_METRICS`) are applied by the tracer itself, and
nothing else writes the registry, so it is a function of the event
stream: a fresh tracer fed the same events reproduces it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.obs import events as ev
from repro.obs.events import Event, _intern_layout, _new_event
from repro.obs.registry import MetricsRegistry

#: :attr:`Derived.kind` of a monotonic counter.
COUNTER = "counter"
#: :attr:`Derived.kind` of a sliding window sampled at the event's time.
WINDOW = "window"


class Derived(NamedTuple):
    """One registry update an event of some type implies."""

    metric: str
    kind: str
    #: The amount, read from the event's fields; ``None`` skips it.
    value: Callable[[dict], Optional[float]]
    #: Address the event's job scope instead of the cluster scope.
    per_job: bool = False


def _one(fields: dict) -> float:
    return 1.0


#: Event type -> the registry updates each such event implies, beyond
#: the per-type event counters. Applied to every counted event, kept or
#: dropped by a ``max_events`` cap.
DERIVED_METRICS: Dict[str, Tuple[Derived, ...]] = {
    ev.JOB_FINISH: (Derived("jct_s", WINDOW, itemgetter("jct_s")),),
    ev.SCHED_DECISION: (
        # Decision latency is wall-clock by design (observability-only,
        # like the latency_ms field itself).
        Derived("decision_latency_ms", WINDOW, itemgetter("latency_ms")),
        # Queue depth: the jobs visible but not running.
        Derived(
            "queue_depth",
            WINDOW,
            lambda f: float(f["num_jobs"] - f["num_running"]),
        ),
    ),
    ev.CACHE_ADMIT: (
        Derived("cache.admitted_mb", COUNTER, itemgetter("delta_mb")),
    ),
    ev.CACHE_EVICT: (
        Derived("cache.evicted_mb", COUNTER, itemgetter("delta_mb")),
    ),
    ev.IO_THROTTLE: (
        Derived(
            "io.throttled_rounds",
            COUNTER,
            lambda f: 1.0 if f["capped"] else None,
            per_job=True,
        ),
        Derived("cache_hit_ratio", WINDOW, itemgetter("hit_ratio")),
    ),
    ev.FAULT_INJECT: (Derived("faults.injected", COUNTER, _one),),
    ev.CACHE_INVALIDATE: (
        Derived("cache.invalidated_mb", COUNTER, itemgetter("delta_mb")),
    ),
    ev.JOB_PREEMPT: (
        Derived("faults.preemptions", COUNTER, _one, per_job=True),
    ),
    ev.JOB_REJECT: (Derived("serve.rejected", COUNTER, _one),),
    ev.SLO_WARN: (Derived("slo.warnings", COUNTER, _one),),
    ev.SLO_VIOLATION: (Derived("slo.violations", COUNTER, _one),),
}


#: An event type's registry plan: its ``events.<type>`` counter name and
#: its :data:`DERIVED_METRICS` rows as ``(metric, is_counter, value,
#: per_job)``.
_Plan = Tuple[str, Tuple[Tuple[str, bool, Callable, bool], ...]]


def _plan(etype: str) -> _Plan:
    """``etype``'s plan, from :data:`DERIVED_METRICS`."""
    return (
        f"events.{etype}",
        tuple(
            (row.metric, row.kind == COUNTER, row.value, row.per_job)
            for row in DERIVED_METRICS.get(etype, ())
        ),
    )


#: Every schema type's plan, built once; an undeclared type's is built
#: per event.
_PLANS: Dict[str, _Plan] = {etype: _plan(etype) for etype in ev.EVENT_TYPES}


class Tracer:
    """Recording tracer: appends events, keeps the registry in step."""

    #: Hot paths check this before building event payloads.
    enabled: bool = True

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.events: List[Event] = []
        self.metrics = MetricsRegistry()
        self._seq = 0
        self._max_events = max_events
        self.dropped = 0

    def emit(
        self,
        ts_s: float,
        etype: str,
        job_id: Optional[str] = None,
        **fields,
    ) -> None:
        """Record one event.

        Every event is counted; past the ``max_events`` cap it is
        dropped from the in-memory list only.
        """
        self._seq += 1
        self._count_event(etype, job_id, fields)
        if (
            self._max_events is not None
            and len(self.events) >= self._max_events
        ):
            self.dropped += 1
            return
        names = tuple(fields)
        names = _intern_layout(names, names)
        values = fields.values()
        self.events.append(
            _new_event(Event, (ts_s, etype, job_id, self._seq, names, *values))
        )

    def _count_event(
        self, etype: str, job_id: Optional[str], fields: dict
    ) -> None:
        """Apply one emitted event to the registry: the per-type event
        counters, then its :data:`DERIVED_METRICS` rows.

        A write to a name its scope already holds is done on the scope's
        dict, with :meth:`MetricsRegistry.inc`'s and
        :meth:`~repro.obs.windows.SlidingWindow.observe`'s own
        operations; a first write goes through ``inc`` or ``observe``,
        which create the name and mark its scope unsorted.
        """
        plan = _PLANS.get(etype)
        if plan is None:
            plan = _plan(etype)
        name, derived = plan
        metrics = self.metrics
        cluster = job_scope = metrics._cluster
        try:
            cluster.counters["events_total"] += 1.0
        except KeyError:
            metrics.inc("events_total")
        try:
            cluster.counters[name] += 1.0
        except KeyError:
            metrics.inc(name)
        if job_id is not None:
            job_scope = metrics._scope(job_id)
            try:
                job_scope.counters[name] += 1.0
            except KeyError:
                metrics.inc(name, job_id=job_id)
        for metric, is_counter, value, per_job in derived:
            amount = value(fields)
            if amount is None:
                continue
            scope = job_scope if per_job else cluster
            if is_counter:
                try:
                    scope.counters[metric] += amount
                except KeyError:
                    metrics.inc(
                        metric, amount, job_id=job_id if per_job else None
                    )
                continue
            window = scope.windows.get(metric)
            if window is None:
                metrics.observe(
                    metric, amount, job_id=job_id if per_job else None
                )
            else:
                window.observe(amount)

    def clear(self) -> None:
        """Drop recorded events and metrics (reused between runs)."""
        self.events.clear()
        self.metrics.clear()
        self._seq = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)


class NullTracer(Tracer):
    """The free default: records nothing, counts nothing."""

    enabled = False

    def emit(
        self,
        ts_s: float,
        etype: str,
        job_id: Optional[str] = None,
        **fields,
    ) -> None:
        """Discard the event."""


#: Shared singleton used as the default tracer everywhere.
NULL_TRACER = NullTracer()
