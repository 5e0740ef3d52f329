"""repro.obs — structured observability for both simulators.

The observability layer has six pieces (see ``docs/OBSERVABILITY.md``
for the full event schema and worked examples):

* :mod:`repro.obs.events` — the typed event schema (``job_submit`` ...
  ``decision_job``) both simulators, the scheduler, and the cache
  systems emit against;
* :mod:`repro.obs.tracer` — :class:`Tracer` (records events + metrics)
  and the free :data:`NULL_TRACER` default;
* :mod:`repro.obs.registry` / :mod:`repro.obs.windows` —
  :class:`MetricsRegistry` counters and sliding-window histograms
  with cluster-wide and per-job scopes, written only by the tracer;
* :mod:`repro.obs.prov` / :mod:`repro.obs.slo` — decision provenance
  (the Eq. 4 inputs behind every allocation; ``python -m repro
  explain``) and SLO tracking against per-job ``deadline_s`` budgets;
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — JSONL / CSV /
  Chrome ``trace_event`` exporters and the ``python -m repro report``
  renderer;
* :mod:`repro.obs.prom` — Prometheus text exposition of the registry
  (the serve HTTP ``/metrics`` endpoint).
"""

from repro.obs.events import (
    EVENT_FIELDS,
    EVENT_TYPES,
    FAULT_TYPES,
    LIFECYCLE_TYPES,
    SERVICE_TYPES,
    SIMULATOR_SCOPED_TYPES,
    Event,
    validate_event,
)
from repro.obs.export import (
    chrome_trace,
    load_events,
    save_chrome_trace,
    save_events,
    save_events_csv,
)
from repro.obs.prom import render_metrics_response, render_snapshot
from repro.obs.prov import (
    DecisionRecord,
    decision_chain,
    emit_decision_provenance,
    render_explain,
)
from repro.obs.registry import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.report import (
    fault_table,
    render_report,
    render_slo_report,
    save_timeline_csv,
    slo_attainment,
    slo_table,
    timeline_rows,
)
from repro.obs.slo import SLOTracker
from repro.obs.stream import StreamingTracer
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.obs.windows import WINDOW_NAMES, SlidingWindow

__all__ = [
    "Event",
    "EVENT_TYPES",
    "EVENT_FIELDS",
    "FAULT_TYPES",
    "LIFECYCLE_TYPES",
    "SERVICE_TYPES",
    "SIMULATOR_SCOPED_TYPES",
    "validate_event",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "StreamingTracer",
    "MetricsRegistry",
    "METRICS_SCHEMA_VERSION",
    "SlidingWindow",
    "WINDOW_NAMES",
    "SLOTracker",
    "DecisionRecord",
    "decision_chain",
    "emit_decision_provenance",
    "render_explain",
    "render_snapshot",
    "render_metrics_response",
    "save_events",
    "load_events",
    "save_events_csv",
    "chrome_trace",
    "save_chrome_trace",
    "render_report",
    "render_slo_report",
    "fault_table",
    "slo_attainment",
    "slo_table",
    "timeline_rows",
    "save_timeline_csv",
]
