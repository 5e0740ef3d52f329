"""Prometheus text exposition of the metrics registry.

Renders a :meth:`~repro.obs.registry.MetricsRegistry.snapshot` (plus
the serve engine's latency summary) in the Prometheus text format
(version 0.0.4), so the online service's HTTP ``/metrics`` endpoint is
scrapeable by stock Prometheus. Mapping:

* counters  → ``repro_<name>`` with ``# TYPE ... counter``;
* windows   → ``repro_window_<name>`` summaries: one sample per
  quantile (``{quantile="0.5"}`` ...) plus ``_count``;
* job-scoped metrics carry a ``job="<id>"`` label;
* the serve block → ``repro_serve_*`` gauges and the admission-to-
  placement latency as a ``repro_serve_admit_to_place_ms`` summary.

Metric names are sanitised (every non ``[a-zA-Z0-9_]`` becomes ``_``)
and samples are emitted in the snapshot's stable sorted order, so equal
registries produce byte-identical expositions.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.obs.windows import SNAPSHOT_QUANTILES

#: Content-Type the HTTP endpoint must answer with.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _name(raw: str, prefix: str = "repro_") -> str:
    """A valid Prometheus metric name for a registry metric name."""
    return prefix + _NAME_RE.sub("_", raw)


def _label(value: str) -> str:
    """Escape one label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _sample(
    name: str, value: float, labels: Optional[Dict[str, str]] = None
) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_label(val)}"' for key, val in sorted(labels.items())
        )
        return f"{name}{{{rendered}}} {value:g}"
    return f"{name} {value:g}"


def _scope_lines(
    bucket: dict, labels: Optional[Dict[str, str]], typed: Dict[str, str]
) -> List[str]:
    """Samples of one scope bucket; records metric types in ``typed``."""
    lines: List[str] = []
    for raw, value in bucket.get("counters", {}).items():
        name = _name(raw)
        typed.setdefault(name, "counter")
        lines.append(_sample(name, value, labels))
    for raw, window in bucket.get("windows", {}).items():
        name = _name(raw, prefix="repro_window_")
        typed.setdefault(name, "summary")
        for label, q in SNAPSHOT_QUANTILES:
            quantile_labels = dict(labels or {})
            quantile_labels["quantile"] = f"{q:g}"
            lines.append(_sample(name, window[label], quantile_labels))
        lines.append(_sample(f"{name}_count", window["count"], labels))
    return lines


def render_snapshot(snapshot: dict) -> str:
    """The registry snapshot alone, as exposition text."""
    typed: Dict[str, str] = {}
    lines: List[str] = []
    lines.extend(_scope_lines(snapshot.get("cluster", {}), None, typed))
    for job_id, bucket in snapshot.get("jobs", {}).items():
        lines.extend(_scope_lines(bucket, {"job": job_id}, typed))
    return _with_type_headers(lines, typed)


def render_metrics_response(response: dict) -> str:
    """A serve ``metrics`` response as one exposition document."""
    typed: Dict[str, str] = {}
    lines: List[str] = []
    snapshot = response.get("metrics", {})
    lines.extend(_scope_lines(snapshot.get("cluster", {}), None, typed))
    for job_id, bucket in snapshot.get("jobs", {}).items():
        lines.extend(_scope_lines(bucket, {"job": job_id}, typed))
    serve = response.get("serve", {})
    for key in (
        "decisions_total",
        "decision_latency_p99_ms",
        "queue_depth",
        "rejected_total",
    ):
        if key in serve:
            name = f"repro_serve_{key}"
            typed.setdefault(
                name, "counter" if key.endswith("_total") else "gauge"
            )
            lines.append(_sample(name, float(serve[key])))
    latency = serve.get("admit_to_place_ms")
    if latency is not None:
        name = "repro_serve_admit_to_place_ms"
        typed.setdefault(name, "summary")
        for label in ("p50", "p99"):
            if label in latency:
                q = float(label[1:]) / 100.0
                lines.append(
                    _sample(name, latency[label], {"quantile": f"{q:g}"})
                )
        lines.append(_sample(f"{name}_count", latency.get("count", 0)))
    return _with_type_headers(lines, typed)


def _with_type_headers(lines: List[str], typed: Dict[str, str]) -> str:
    """Prepend one ``# TYPE`` header before each metric's first sample."""
    seen = set()
    out: List[str] = []
    for line in lines:
        name = line.split("{", 1)[0].split(" ", 1)[0]
        base = name[:-6] if name.endswith("_count") else name
        header = typed.get(base)
        if header is not None and base not in seen:
            seen.add(base)
            out.append(f"# TYPE {base} {header}")
        out.append(line)
    return "\n".join(out) + "\n"
