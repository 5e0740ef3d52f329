"""SLO tracking: per-job JCT budgets (``deadline_s``) and their fate.

A job may declare an optional ``deadline_s`` — a completion-time budget
relative to its submission. The :class:`SLOTracker` watches every such
job inside the simulators (both of them drive the same tracker from
their deterministic control points: admission, decision rounds, epoch
boundaries, retirement) and narrates the budget's life through two
event types, each emitted **at most once per job**:

* ``slo_warn`` — the budget passed :data:`WARN_FRACTION` of its length
  with the job unfinished;
* ``slo_violation`` — the budget is exhausted. ``state`` says whether
  the job was still ``running`` when the deadline passed or only
  revealed the overrun at ``finished`` (possible when the deadline
  falls between two checkpoints and the job finishes late in between).

Jobs without a deadline never touch the tracker, so traces that do not
use SLOs produce byte-identical logs with or without it. Checks run
only at simulation-driven instants, so batch and online runs of the
same trace emit identical warn/violation sequences (the serve
equivalence tests rely on this).

``report --slo`` renders the attainment table from the resulting event
log alone — see :func:`repro.obs.report.slo_table`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.obs import events as ev
from repro.obs.tracer import Tracer

#: Fraction of the budget after which the single warning fires.
WARN_FRACTION = 0.8


@dataclasses.dataclass
class _TrackedJob:
    """One deadline-carrying job's SLO state."""

    submit_s: float
    deadline_s: float
    warned: bool = False
    violated: bool = False


class SLOTracker:
    """Watch deadline-carrying jobs; emit each SLO event once."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._jobs: Dict[str, _TrackedJob] = {}

    def __len__(self) -> int:
        return len(self._jobs)

    def register(
        self, job_id: str, submit_s: float, deadline_s: Optional[float]
    ) -> None:
        """Start tracking a job; no-op when it has no deadline."""
        if deadline_s is None:
            return
        self._jobs[job_id] = _TrackedJob(
            submit_s=submit_s, deadline_s=float(deadline_s)
        )

    def discard(self, job_id: str) -> None:
        """Stop tracking (cancellation); nothing further is emitted."""
        self._jobs.pop(job_id, None)

    def check(self, now_s: float) -> None:
        """Advance every tracked job's budget to ``now_s``.

        Call from simulation-driven control points only (decision
        rounds, epoch boundaries, retirements) — never from wall-clock
        timers — so the emitted sequence is a deterministic function of
        the run.
        """
        if not self._tracer.enabled or not self._jobs:
            return
        for job_id in sorted(self._jobs):
            tracked = self._jobs[job_id]
            elapsed = now_s - tracked.submit_s
            if not tracked.violated and elapsed >= tracked.deadline_s:
                tracked.violated = True
                self._tracer.emit(
                    now_s,
                    ev.SLO_VIOLATION,
                    job_id,
                    deadline_s=tracked.deadline_s,
                    jct_s=elapsed,
                    overrun_s=elapsed - tracked.deadline_s,
                    state="running",
                )
            elif (
                not tracked.warned
                and not tracked.violated
                and elapsed >= WARN_FRACTION * tracked.deadline_s
            ):
                tracked.warned = True
                self._tracer.emit(
                    now_s,
                    ev.SLO_WARN,
                    job_id,
                    deadline_s=tracked.deadline_s,
                    elapsed_s=elapsed,
                    remaining_s=tracked.deadline_s - elapsed,
                    ratio=elapsed / tracked.deadline_s,
                )

    def finish(self, job_id: str, finish_s: float) -> None:
        """Settle a finishing job: late finishes violate exactly once."""
        tracked = self._jobs.pop(job_id, None)
        if tracked is None or not self._tracer.enabled:
            return
        jct = finish_s - tracked.submit_s
        if not tracked.violated and jct > tracked.deadline_s:
            self._tracer.emit(
                finish_s,
                ev.SLO_VIOLATION,
                job_id,
                deadline_s=tracked.deadline_s,
                jct_s=jct,
                overrun_s=jct - tracked.deadline_s,
                state="finished",
            )
