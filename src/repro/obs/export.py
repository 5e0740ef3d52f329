"""Event-log exporters: JSONL, CSV, and Chrome ``trace_event`` JSON.

Three interchange formats cover the consumers we know about:

* **JSONL** (:func:`save_events` / :func:`load_events`) — the archival
  format: one event per line, first line a version header. Lossless
  round trip; ``python -m repro report`` reads it.
* **CSV** (:func:`save_events_csv`) — flat rows for spreadsheet /
  pandas post-processing; per-type fields are carried as one JSON
  column so the column set is stable across event types.
* **Chrome trace** (:func:`chrome_trace` / :func:`save_chrome_trace`) —
  the ``trace_event`` JSON consumed by Perfetto and ``chrome://tracing``:
  job lifecycles become async begin/end spans, everything else becomes
  instant events, and scheduling rounds feed counter tracks (running
  jobs, granted IO) so a run's shape is visible at a glance.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from repro.obs import events as ev
from repro.obs.events import Event

#: JSONL header: the first line of an event log or a serve event stream.
_HEADER = {"v": 1, "kind": "repro-events"}
HEADER_LINE = json.dumps(_HEADER) + "\n"

#: Microseconds per simulated second in Chrome traces.
_US = 1e6


def save_events(
    events: Sequence[Event], path: Union[str, Path]
) -> None:
    """Write an event log as versioned JSON Lines, one line at a time."""
    with open(path, "w") as handle:
        handle.write(HEADER_LINE)
        for event in events:
            handle.write(event_line(event))


def event_line(event: Event) -> str:
    """One event as a JSON Lines record, newline included."""
    return json.dumps(event.to_dict()) + "\n"


def check_header(header: dict, source: object) -> None:
    """Raise ``ValueError`` unless ``header`` opens a readable log."""
    if header.get("kind") != _HEADER["kind"]:
        raise ValueError(f"{source}: not a repro event log")
    if header.get("v") != _HEADER["v"]:
        raise ValueError(
            f"{source}: unsupported event-log version {header.get('v')}"
        )


def load_events(path: Union[str, Path]) -> List[Event]:
    """Read an event log written by :func:`save_events`."""
    events: List[Event] = []
    with open(path) as handle:
        first = handle.readline()
        if not first.strip():
            return events
        check_header(json.loads(first), path)
        for line in handle:
            line = line.strip()
            if line:
                events.append(Event.from_dict(json.loads(line)))
    return events


def save_events_csv(
    events: Sequence[Event], path: Union[str, Path]
) -> None:
    """Write events as flat CSV (fixed columns + one JSON field column)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["seq", "ts_s", "etype", "job_id", "fields_json"])
        for event in events:
            writer.writerow(
                [
                    event.seq,
                    event.ts_s,
                    event.etype,
                    event.job_id or "",
                    json.dumps(event.fields, sort_keys=True),
                ]
            )


# ----------------------------------------------------------------------
# Chrome trace_event.
# ----------------------------------------------------------------------


def chrome_trace(events: Iterable[Event]) -> dict:
    """Convert an event log to the Chrome ``trace_event`` JSON object.

    The returned dict serialises to a file Perfetto and
    ``chrome://tracing`` open directly. Simulated seconds map to trace
    microseconds, all on one process (``pid`` 0) with one thread lane
    per job (stable by first appearance) plus lane 0 for cluster-scoped
    events.
    """
    trace: List[dict] = []
    lanes: Dict[str, int] = {}

    def _lane(job_id) -> int:
        if job_id is None:
            return 0
        if job_id not in lanes:
            lanes[job_id] = len(lanes) + 1
            trace.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": lanes[job_id],
                    "name": "thread_name",
                    "args": {"name": f"job {job_id}"},
                }
            )
        return lanes[job_id]

    for event in events:
        ts_us = event.ts_s * _US
        tid = _lane(event.job_id)
        fields = event.fields
        args = {"job_id": event.job_id, **fields}
        if event.etype == ev.JOB_START:
            trace.append(
                {
                    "ph": "b",
                    "cat": "job",
                    "id": tid,
                    "name": f"job {event.job_id}",
                    "pid": 0,
                    "tid": tid,
                    "ts": ts_us,
                    "args": args,
                }
            )
        elif event.etype == ev.JOB_FINISH:
            trace.append(
                {
                    "ph": "e",
                    "cat": "job",
                    "id": tid,
                    "name": f"job {event.job_id}",
                    "pid": 0,
                    "tid": tid,
                    "ts": ts_us,
                    "args": args,
                }
            )
        else:
            trace.append(
                {
                    "ph": "i",
                    "s": "t" if event.job_id else "g",
                    "cat": event.etype,
                    "name": event.etype,
                    "pid": 0,
                    "tid": tid,
                    "ts": ts_us,
                    "args": args,
                }
            )
        if event.etype == ev.SCHED_DECISION:
            trace.append(
                {
                    "ph": "C",
                    "name": "scheduler",
                    "pid": 0,
                    "tid": 0,
                    "ts": ts_us,
                    "args": {
                        "running_jobs": fields.get("num_running", 0),
                        "gpus_granted": fields.get("gpus_granted", 0),
                        "io_granted_mbps": fields.get("io_granted_mbps", 0),
                    },
                }
            )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def save_chrome_trace(
    events: Iterable[Event], path: Union[str, Path]
) -> None:
    """Write the Chrome ``trace_event`` JSON for an event log."""
    Path(path).write_text(json.dumps(chrome_trace(events)))
