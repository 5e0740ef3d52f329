"""Streaming tracer: fan events out to live subscribers as they happen.

:class:`StreamingTracer` is a drop-in :class:`~repro.obs.tracer.Tracer`
that additionally calls every registered *sink* with each event at
emission time. ``repro.serve`` uses it to push the run's `repro.obs`
stream to connected socket subscribers (JSONL over the wire) while the
service is still running — ``python -m repro report --tail HOST:PORT``
is one such subscriber — and to measure admission-to-placement latency
without a second bookkeeping path.

Sinks see every event exactly once, in emission order, *including*
events dropped from the in-memory list by a ``max_events`` cap: the cap
bounds the tracer's memory, not the stream or the event counters. A
sink must never mutate the event it receives (the same object lands in
the recorded list).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.obs.events import Event
from repro.obs.tracer import Tracer

#: A sink receives each event at emission time; exceptions propagate to
#: the emitter, so sinks must be non-raising (enqueue and return).
EventSink = Callable[[Event], None]


class StreamingTracer(Tracer):
    """A recording tracer that also pushes each event to live sinks."""

    def __init__(self, max_events: Optional[int] = None) -> None:
        super().__init__(max_events=max_events)
        self._sinks: List[EventSink] = []

    def add_sink(self, sink: EventSink) -> None:
        """Register a sink; it sees every event emitted from now on."""
        self._sinks.append(sink)

    def emit(
        self,
        ts_s: float,
        etype: str,
        job_id: Optional[str] = None,
        **fields,
    ) -> None:
        """Record the event, then stream it to every sink."""
        self._seq += 1
        event = Event(
            ts_s=ts_s,
            etype=etype,
            job_id=job_id,
            fields=fields,
            seq=self._seq,
        )
        self._count_event(etype, job_id)
        if (
            self._max_events is not None
            and len(self.events) >= self._max_events
        ):
            self.dropped += 1
        else:
            self.events.append(event)
        for sink in self._sinks:
            sink(event)
