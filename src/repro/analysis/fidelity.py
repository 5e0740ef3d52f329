"""Fidelity comparison between the two simulators (Table 6's error columns).

The paper validates its Go simulator and its GPU-acceleration approach
against the real 8-V100 cluster and reports per-system relative errors on
average JCT and makespan. Our analog compares the fluid simulator against
the item-level minibatch emulator for the same (scheduler, cache, trace).

When the error is large, :func:`localize_divergence` narrows down *where*
the two runs first disagree: both simulators emit the same structured
event schema (``repro.obs``), and the subsequence of anchor events — job
lifecycle, epoch boundaries, and fault preempts/restarts — is defined to
be identical across them. The first anchor at which the sequences differ
is the earliest observable divergence, with enough context (the
surrounding events of both logs) to debug from.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.faults.spec import ScheduleLike
from repro.obs import events as ev
from repro.obs.events import Event
from repro.obs.tracer import Tracer
from repro.sim.fluid import FluidSimulator
from repro.sim.metrics import relative_error
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system

#: Event types whose (type, job, signature) sequence must match across
#: simulators: the lifecycle (same trace => same order), per-job epoch
#: boundaries, and fault-driven preempts/restarts (same schedule =>
#: same victims). Timestamps are *not* compared — the minibatch
#: emulator quantises to batch/interval boundaries.
ANCHOR_TYPES = (
    ev.JOB_SUBMIT,
    ev.JOB_START,
    ev.JOB_FINISH,
    ev.EPOCH_BOUNDARY,
    ev.JOB_PREEMPT,
    ev.JOB_RESTART,
)


@dataclasses.dataclass
class DivergencePoint:
    """The first anchor event at which the two simulators disagree.

    ``fluid_event`` / ``emulator_event`` is ``None`` when that log's
    anchor sequence for the job ended early (the other simulator emitted
    an event this one never did).
    """

    job_id: str
    #: Position in the job's anchor-event sequence (0-based).
    index: int
    fluid_event: Optional[Event]
    emulator_event: Optional[Event]

    def describe(self) -> str:
        """One-line human summary for logs and assertion messages."""

        def _fmt(event: Optional[Event]) -> str:
            if event is None:
                return "<no event>"
            fields = event.fields
            extra = f" epoch={fields['epoch']}" if "epoch" in fields else ""
            return f"{event.etype}@{event.ts_s:.1f}s{extra}"

        return (
            f"job {self.job_id} anchor #{self.index}: "
            f"fluid={_fmt(self.fluid_event)} vs "
            f"emulator={_fmt(self.emulator_event)}"
        )


@dataclasses.dataclass
class FidelityReport:
    """Relative errors of the fluid simulator vs the emulator."""

    cache: str
    emulator_jct_min: float
    fluid_jct_min: float
    emulator_makespan_min: float
    fluid_makespan_min: float
    #: First observable disagreement between the two event logs, when
    #: localization was requested (``None``: not requested or no
    #: divergence found).
    divergence: Optional[DivergencePoint] = None

    @property
    def jct_error(self) -> float:
        """Relative error on average JCT."""
        return relative_error(self.emulator_jct_min, self.fluid_jct_min)

    @property
    def makespan_error(self) -> float:
        """Relative error on makespan."""
        return relative_error(
            self.emulator_makespan_min, self.fluid_makespan_min
        )

    def as_row(self) -> Dict:
        """Report row in the style of Table 6."""
        return {
            "cache": self.cache,
            "emulator_jct_min": self.emulator_jct_min,
            "fluid_jct_min": self.fluid_jct_min,
            "jct_error_%": 100.0 * self.jct_error,
            "emulator_makespan_min": self.emulator_makespan_min,
            "fluid_makespan_min": self.fluid_makespan_min,
            "makespan_error_%": 100.0 * self.makespan_error,
        }


def _anchor_signature(event: Event) -> Tuple:
    """What must match across simulators for one anchor event."""
    if event.etype == ev.EPOCH_BOUNDARY:
        return (event.etype, event.fields.get("epoch"))
    if event.etype in (ev.JOB_PREEMPT, ev.JOB_RESTART):
        return (event.etype, event.fields.get("reason"))
    return (event.etype,)


def localize_divergence(
    fluid_events: Sequence[Event],
    emulator_events: Sequence[Event],
) -> Optional[DivergencePoint]:
    """Find the first anchor event where the two logs disagree.

    Anchors are compared **per job** (cross-job interleaving is timing-
    dependent and allowed to differ); within a job, the sequence of
    ``(etype, signature)`` pairs over :data:`ANCHOR_TYPES` must be
    identical. Among jobs that diverge, the one whose divergence happens
    earliest (by the fluid log's timestamp, submit-order tie-break) is
    reported. Returns ``None`` when every job's anchors agree.
    """

    def _per_job(events: Sequence[Event]) -> Dict[str, List[Event]]:
        by_job: Dict[str, List[Event]] = {}
        for event in events:
            if event.etype in ANCHOR_TYPES and event.job_id is not None:
                by_job.setdefault(event.job_id, []).append(event)
        return by_job

    fluid_jobs = _per_job(fluid_events)
    emulator_jobs = _per_job(emulator_events)
    best: Optional[DivergencePoint] = None
    best_ts = None
    for job_id in sorted(set(fluid_jobs) | set(emulator_jobs)):
        f_seq = fluid_jobs.get(job_id, [])
        m_seq = emulator_jobs.get(job_id, [])
        point = None
        for idx in range(max(len(f_seq), len(m_seq))):
            f_event = f_seq[idx] if idx < len(f_seq) else None
            m_event = m_seq[idx] if idx < len(m_seq) else None
            if (
                f_event is None
                or m_event is None
                or _anchor_signature(f_event) != _anchor_signature(m_event)
            ):
                point = DivergencePoint(
                    job_id=job_id,
                    index=idx,
                    fluid_event=f_event,
                    emulator_event=m_event,
                )
                break
        if point is None:
            continue
        anchor = point.fluid_event or point.emulator_event
        ts = anchor.ts_s if anchor is not None else 0.0
        if best is None or ts < best_ts:
            best, best_ts = point, ts
    return best


def compare_simulators(
    cluster: Cluster,
    policy: str,
    cache: str,
    jobs: Sequence[Job],
    item_size_mb: float = 256.0,
    faults: ScheduleLike = None,
    localize: bool = False,
    **sim_kwargs,
) -> FidelityReport:
    """Run both simulators on one configuration and report the errors.

    ``faults`` drives both runs through the same fault schedule;
    ``localize=True`` additionally traces both runs and attaches the
    first diverging anchor event (:class:`DivergencePoint`) to the
    report — the auto-localization the roadmap's fidelity item calls
    for.
    """
    fluid_tracer = Tracer() if localize else None
    emulator_tracer = Tracer() if localize else None
    scheduler_f, cache_f = make_system(policy, cache)
    fluid = FluidSimulator(
        cluster,
        scheduler_f,
        cache_f,
        list(jobs),
        faults=faults,
        tracer=fluid_tracer,
        **sim_kwargs,
    ).run()
    scheduler_m, cache_m = make_system(policy, cache)
    emulated = MinibatchEmulator(
        cluster,
        scheduler_m,
        cache_m,
        list(jobs),
        item_size_mb=item_size_mb,
        faults=faults,
        tracer=emulator_tracer,
    ).run()
    divergence = None
    if localize:
        divergence = localize_divergence(
            fluid_tracer.events, emulator_tracer.events
        )
    return FidelityReport(
        cache=cache,
        emulator_jct_min=emulated.average_jct_minutes(),
        fluid_jct_min=fluid.average_jct_minutes(),
        emulator_makespan_min=emulated.makespan_minutes(),
        fluid_makespan_min=fluid.makespan_minutes(),
        divergence=divergence,
    )
