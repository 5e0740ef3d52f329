"""Render an event log into the paper-style run summaries.

This is the analysis half of the observability layer: given the events
of one run (typically loaded from the JSONL log), it reconstructs

* the **job lifecycle table** — submit/start/finish, queue delay, JCT,
  epochs per job;
* the **throughput timeline** (Figures 9/11's view) — achieved vs
  compute-bound ("ideal") aggregate throughput and remote-IO usage,
  binned over the run, derived from the per-round ``io_throttle``
  events;
* the **scheduler-decision audit** — rounds, decision latency, grant
  aggregates and GPU churn per policy, from ``sched_decision`` and
  ``alloc_change``;
* the **cache activity table** — admitted/evicted bytes and
  effectiveness promotions per cache key;
* the **fault timeline** — one row per fault-subsystem event
  (``fault_inject``, ``node_down``/``node_up``, ``cache_invalidate``,
  ``job_preempt``/``job_restart``), rendered only when a run was driven
  by a ``repro.faults`` schedule.

``python -m repro report`` prints all of them; each table is also
exposed as plain rows for programmatic use.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import units
from repro.analysis.tables import render_table
from repro.core.perf_model import achieved_rate
from repro.obs import events as ev
from repro.obs.events import Event


def _last_per_round(
    events: Sequence[Event], etype: str
) -> Dict[Tuple[float, Optional[str]], Event]:
    """Latest event per (timestamp, job) — re-decisions override."""
    latest: Dict[Tuple[float, Optional[str]], Event] = {}
    for event in events:
        if event.etype == etype:
            latest[(event.ts_s, event.job_id)] = event
    return latest


def job_table(events: Sequence[Event]) -> List[dict]:
    """Per-job lifecycle rows (submit/start/finish/queue delay/JCT)."""
    jobs: Dict[str, dict] = {}
    for event in events:
        if event.etype == ev.JOB_SUBMIT:
            fields = event.fields
            jobs[event.job_id] = {
                "job": event.job_id,
                "model": fields.get("model"),
                "dataset": fields.get("dataset"),
                "gpus": fields.get("num_gpus"),
                "submit_min": units.seconds_to_minutes(event.ts_s),
                "start_min": None,
                "finish_min": None,
                "queue_min": None,
                "jct_min": None,
                "epochs": 0,
            }
        elif event.etype == ev.JOB_START and event.job_id in jobs:
            row = jobs[event.job_id]
            row["start_min"] = units.seconds_to_minutes(event.ts_s)
            row["queue_min"] = units.seconds_to_minutes(
                float(event.fields.get("queue_delay_s", 0.0))
            )
        elif event.etype == ev.JOB_FINISH and event.job_id in jobs:
            row = jobs[event.job_id]
            row["finish_min"] = units.seconds_to_minutes(event.ts_s)
            fields = event.fields
            row["jct_min"] = units.seconds_to_minutes(
                float(fields.get("jct_s", 0.0))
            )
            row["epochs"] = fields.get("epochs_done", 0)
    return sorted(jobs.values(), key=lambda r: (r["submit_min"], r["job"]))


def _round_aggregates(
    events: Sequence[Event],
) -> List[Tuple[float, int, float, float, float]]:
    """Per decision round: (ts, running, achieved, ideal, io) MB/s."""
    latest = _last_per_round(events, ev.IO_THROTTLE)
    rounds: Dict[float, List[Event]] = {}
    for (ts, _job), event in latest.items():
        rounds.setdefault(ts, []).append(event)
    out = []
    for ts in sorted(rounds):
        achieved = ideal = io_used = 0.0
        for event in rounds[ts]:
            fields = event.fields
            desired = float(fields.get("desired_mbps", 0.0))
            hit = float(fields.get("hit_ratio", 0.0))
            demand = float(fields.get("demand_mbps", 0.0))
            grant = float(fields.get("grant_mbps", 0.0))
            achieved += achieved_rate(desired, hit, grant)
            ideal += desired
            io_used += min(demand, grant)
        out.append((ts, len(rounds[ts]), achieved, ideal, io_used))
    return out


def timeline_rows(
    events: Sequence[Event], bins: int = 24
) -> List[dict]:
    """The Figure 9/11-style timeline, binned into ``bins`` intervals.

    Each row averages the scheduling rounds falling in its time bin:
    running jobs, achieved aggregate throughput, the compute-bound
    ceiling, and remote IO in flight.
    """
    rounds = _round_aggregates(events)
    if not rounds:
        return []
    t_end = max(ts for ts, *_ in rounds)
    span = max(t_end, 1e-9)
    width = span / bins
    buckets: Dict[int, List[Tuple[float, int, float, float, float]]] = {}
    for entry in rounds:
        idx = min(bins - 1, int(entry[0] / width))
        buckets.setdefault(idx, []).append(entry)
    rows = []
    for idx in sorted(buckets):
        group = buckets[idx]
        n = len(group)
        rows.append(
            {
                "t_min": units.seconds_to_minutes((idx + 0.5) * width),
                "running": sum(g[1] for g in group) / n,
                "achieved_mbps": sum(g[2] for g in group) / n,
                "ideal_mbps": sum(g[3] for g in group) / n,
                "remote_io_mbps": sum(g[4] for g in group) / n,
            }
        )
    return rows


def decision_audit(events: Sequence[Event]) -> List[dict]:
    """Per-policy scheduler audit rows from ``sched_decision`` events."""
    # (policy, storage_aware) -> per round (latency, gpus, io).
    by_policy: Dict[Tuple[str, bool], List[Tuple[float, float, float]]] = {}
    changes = preemptions = 0
    for event in events:
        if event.etype == ev.SCHED_DECISION:
            fields = event.fields
            key = (
                str(fields.get("policy")),
                bool(fields.get("storage_aware")),
            )
            by_policy.setdefault(key, []).append(
                (
                    float(fields.get("latency_ms", 0.0)),
                    float(fields.get("gpus_granted", 0.0)),
                    float(fields.get("io_granted_mbps", 0.0)),
                )
            )
        elif event.etype == ev.ALLOC_CHANGE:
            changes += 1
            fields = event.fields
            if (
                float(fields.get("gpus_after", 0.0))
                <= 0.0
                < float(fields.get("gpus_before", 0.0))
            ):
                preemptions += 1
    rows = []
    for (policy, storage_aware), group in sorted(by_policy.items()):
        n = len(group)
        rows.append(
            {
                "policy": policy,
                "storage_aware": storage_aware,
                "rounds": n,
                "mean_latency_ms": sum(g[0] for g in group) / n,
                "mean_gpus_granted": sum(g[1] for g in group) / n,
                "mean_io_mbps": sum(g[2] for g in group) / n,
                "alloc_changes": changes,
                "preemptions": preemptions,
            }
        )
    return rows


def cache_table(events: Sequence[Event]) -> List[dict]:
    """Per-cache-key activity rows (admissions, evictions, promotions)."""
    keys: Dict[str, dict] = {}

    def _row(key: str) -> dict:
        return keys.setdefault(
            key,
            {
                "key": key,
                "admitted_mb": 0.0,
                "evicted_mb": 0.0,
                "promotions": 0,
                "last_resident_mb": 0.0,
                "last_effective_mb": 0.0,
            },
        )

    for event in events:
        etype = event.etype
        if etype == ev.CACHE_ADMIT or etype == ev.CACHE_EVICT:
            fields = event.fields
            row = _row(str(fields.get("key")))
            column = (
                "admitted_mb" if etype == ev.CACHE_ADMIT else "evicted_mb"
            )
            row[column] += float(fields.get("delta_mb", 0.0))
            row["last_resident_mb"] = float(fields.get("resident_mb", 0.0))
        elif etype == ev.PROMOTE_EFFECTIVE:
            fields = event.fields
            row = _row(str(fields.get("key")))
            row["promotions"] += 1
            row["last_effective_mb"] = float(
                fields.get("effective_mb", 0.0)
            )
    return sorted(keys.values(), key=lambda r: r["key"])


def fault_table(events: Sequence[Event]) -> List[dict]:
    """Chronological fault-timeline rows (``repro.faults`` events).

    One row per fault event, in emission order: what was injected, which
    capacity moved, what was invalidated, and who got preempted. Empty
    when the run had no fault schedule.
    """
    rows = []
    for event in events:
        if event.etype not in ev.FAULT_TYPES:
            continue
        f = event.fields
        if event.etype == ev.FAULT_INJECT:
            detail = f"kind={f.get('kind')} magnitude={f.get('magnitude')}"
            target = f.get("target")
            if target:
                detail += f" target={target}"
        elif event.etype == ev.NODE_DOWN:
            detail = (
                f"{f.get('kind')}:"
                f" -{float(f.get('gpus_lost', 0.0)):g} GPUs,"
                f" -{float(f.get('cache_lost_mb', 0.0)):g} MB cache"
            )
        elif event.etype == ev.NODE_UP:
            detail = (
                f"{f.get('kind')}:"
                f" +{float(f.get('gpus_restored', 0.0)):g} GPUs,"
                f" +{float(f.get('cache_restored_mb', 0.0)):g}"
                " MB cache (cold)"
            )
        elif event.etype == ev.CACHE_INVALIDATE:
            detail = (
                f"key={f.get('key')}"
                f" -{float(f.get('delta_mb', 0.0)):g} MB"
                f" ({f.get('cause')})"
            )
        elif event.etype == ev.JOB_PREEMPT:
            detail = (
                f"reason={f.get('reason')}"
                f" rollback={float(f.get('rollback_mb', 0.0)):g} MB"
                f" epoch={f.get('epoch')}"
            )
        else:  # JOB_RESTART
            detail = f"resumes at epoch {f.get('epoch')}"
        rows.append(
            {
                "t_min": units.seconds_to_minutes(event.ts_s),
                "event": event.etype,
                "job": event.job_id or "-",
                "detail": detail,
            }
        )
    return rows


def slo_table(events: Sequence[Event]) -> List[dict]:
    """Per-deadline-job SLO attainment rows (``report --slo``).

    One row per job that declared a ``deadline_s``, built from the
    ``job_submit`` / ``job_finish`` / ``slo_warn`` / ``slo_violation``
    events alone. ``status`` is ``met`` (finished inside the budget),
    ``warned`` (budget mostly spent but met), ``violated``, or
    ``running`` (no finish in the log and no violation yet). Empty when
    no job carried a deadline.
    """
    jobs: Dict[str, dict] = {}
    for event in events:
        if event.etype == ev.JOB_SUBMIT:
            deadline = event.fields.get("deadline_s")
            if deadline is None:
                continue
            jobs[event.job_id] = {
                "job": event.job_id,
                "deadline_min": units.seconds_to_minutes(float(deadline)),
                "jct_min": None,
                "margin_min": None,
                "status": "running",
            }
        elif event.etype == ev.SLO_WARN and event.job_id in jobs:
            row = jobs[event.job_id]
            if row["status"] == "running":
                row["status"] = "warned"
        elif event.etype == ev.SLO_VIOLATION and event.job_id in jobs:
            jobs[event.job_id]["status"] = "violated"
        elif event.etype == ev.JOB_FINISH and event.job_id in jobs:
            row = jobs[event.job_id]
            jct_min = units.seconds_to_minutes(
                float(event.fields.get("jct_s", 0.0))
            )
            row["jct_min"] = jct_min
            row["margin_min"] = row["deadline_min"] - jct_min
            if row["status"] in ("running", "warned"):
                row["status"] = "met"
    return sorted(jobs.values(), key=lambda r: r["job"])


def slo_attainment(events: Sequence[Event]) -> Optional[dict]:
    """Headline attainment: jobs meeting their deadline / jobs with one."""
    rows = slo_table(events)
    if not rows:
        return None
    met = sum(1 for r in rows if r["status"] == "met")
    return {
        "jobs_with_deadline": len(rows),
        "met": met,
        "violated": sum(1 for r in rows if r["status"] == "violated"),
        "attainment": met / len(rows),
    }


def summary_rows(events: Sequence[Event]) -> List[dict]:
    """Run-level aggregates (the ``run`` command's headline numbers)."""
    jobs = job_table(events)
    finished = [r for r in jobs if r["jct_min"] is not None]
    avg_jct = (
        sum(r["jct_min"] for r in finished) / len(finished)
        if finished
        else math.nan
    )
    makespan = (
        max(r["finish_min"] for r in finished)
        if finished and len(finished) == len(jobs)
        else math.nan
    )
    return [
        {"metric": "jobs submitted", "value": len(jobs)},
        {"metric": "jobs finished", "value": len(finished)},
        {"metric": "average JCT (min)", "value": avg_jct},
        {"metric": "makespan (min)", "value": makespan},
        {
            "metric": "events",
            "value": len(events),
        },
    ]


def render_slo_report(events: Sequence[Event]) -> str:
    """The ``report --slo`` section: attainment headline plus table."""
    rows = slo_table(events)
    if not rows:
        return "SLO attainment: no job declared a deadline_s"
    summary = slo_attainment(events)
    headline = (
        f"SLO attainment: {summary['met']}/{summary['jobs_with_deadline']}"
        f" ({100.0 * summary['attainment']:.1f}%) met,"
        f" {summary['violated']} violated"
    )
    return headline + "\n\n" + render_table(
        rows, title="deadline attainment (times in minutes)"
    )


def render_report(events: Sequence[Event], bins: int = 24) -> str:
    """The full ``python -m repro report`` output for an event log."""
    sections = [
        render_table(summary_rows(events), title="run summary"),
        render_table(
            job_table(events), title="job lifecycle (times in minutes)"
        ),
    ]
    timeline = timeline_rows(events, bins=bins)
    if timeline:
        sections.append(
            render_table(
                timeline,
                title="throughput timeline (Figure 9/11 style, MB/s)",
            )
        )
    audit = decision_audit(events)
    if audit:
        sections.append(
            render_table(audit, title="scheduler decision audit")
        )
    caches = cache_table(events)
    if caches:
        sections.append(render_table(caches, title="cache activity"))
    faults = fault_table(events)
    if faults:
        sections.append(
            render_table(faults, title="fault timeline (repro.faults)")
        )
    return "\n\n".join(sections)


def save_timeline_csv(
    events: Sequence[Event], path: Union[str, "object"], bins: int = 24
) -> None:
    """Write the binned throughput timeline as CSV."""
    import csv

    rows = timeline_rows(events, bins=bins)
    columns = [
        "t_min",
        "running",
        "achieved_mbps",
        "ideal_mbps",
        "remote_io_mbps",
    ]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
