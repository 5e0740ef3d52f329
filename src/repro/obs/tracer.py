"""The structured event tracer and its free no-op variant.

``Tracer`` records :class:`~repro.obs.events.Event` objects in emission
order and keeps a :class:`~repro.obs.registry.MetricsRegistry` updated
alongside. ``NullTracer`` (the module-level ``NULL_TRACER`` singleton)
is the default everywhere: its ``enabled`` flag is ``False`` and every
emit is a no-op, so instrumented hot paths guard with one attribute
check::

    tr = self._tracer
    if tr.enabled:
        tr.cache_admit(self.clock_s, key, delta_mb, resident_mb, "miss")

and pay essentially nothing when tracing is off (the <5% ``matrix``
wall-clock budget in the acceptance criteria).

Typed emit helpers — one per event type — are the only supported way to
produce events: they pin the field set of each type to the schema in
:mod:`repro.obs.events`, so the JSONL log stays machine-parseable and
``docs/OBSERVABILITY.md`` stays truthful.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs import events as ev
from repro.obs.events import Event
from repro.obs.registry import MetricsRegistry


class Tracer:
    """Recording tracer: appends events, bumps per-type counters."""

    #: Hot paths check this before building event payloads.
    enabled: bool = True

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.events: List[Event] = []
        self.metrics = MetricsRegistry()
        self._seq = 0
        self._max_events = max_events
        self.dropped = 0

    # ------------------------------------------------------------------
    # Core emission.
    # ------------------------------------------------------------------

    def emit(
        self,
        ts_s: float,
        etype: str,
        job_id: Optional[str] = None,
        **fields,
    ) -> None:
        """Record one event (typed helpers below are preferred)."""
        self._seq += 1
        if (
            self._max_events is not None
            and len(self.events) >= self._max_events
        ):
            self.dropped += 1
            return
        self.events.append(
            Event(
                ts_s=ts_s,
                etype=etype,
                job_id=job_id,
                fields=fields,
                seq=self._seq,
            )
        )
        self._count_event(etype, job_id)

    def _count_event(self, etype: str, job_id: Optional[str]) -> None:
        """Bump the per-type event counters of one recorded event."""
        metrics = self.metrics
        metrics.inc("events_total")
        name = f"events.{etype}"
        metrics.inc(name)
        if job_id is not None:
            metrics.inc(name, job_id=job_id)

    def clear(self) -> None:
        """Drop recorded events and metrics (reused between runs)."""
        self.events.clear()
        self.metrics.clear()
        self._seq = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Typed helpers (one per event type in the schema).
    # ------------------------------------------------------------------

    def job_submit(
        self,
        ts_s: float,
        job_id: str,
        model: str,
        dataset: str,
        num_gpus: int,
        dataset_mb: float,
        total_work_mb: float,
        deadline_s: Optional[float] = None,
    ) -> None:
        """A job entered the cluster queue."""
        self.emit(
            ts_s,
            ev.JOB_SUBMIT,
            job_id,
            model=model,
            dataset=dataset,
            num_gpus=num_gpus,
            dataset_mb=dataset_mb,
            total_work_mb=total_work_mb,
            deadline_s=deadline_s,
        )

    def job_start(
        self, ts_s: float, job_id: str, gpus: float, queue_delay_s: float
    ) -> None:
        """A job received its first GPU grant."""
        self.emit(
            ts_s,
            ev.JOB_START,
            job_id,
            gpus=gpus,
            queue_delay_s=queue_delay_s,
        )

    def job_finish(
        self, ts_s: float, job_id: str, jct_s: float, epochs_done: int
    ) -> None:
        """A job consumed its last byte of work."""
        self.emit(
            ts_s, ev.JOB_FINISH, job_id, jct_s=jct_s, epochs_done=epochs_done
        )
        if self.enabled:
            self.metrics.observe("jct_s", ts_s, jct_s)

    def sched_decision(
        self,
        ts_s: float,
        policy: str,
        storage_aware: bool,
        num_jobs: int,
        num_running: int,
        gpus_granted: float,
        cache_granted_mb: float,
        io_granted_mbps: float,
        # The schema reports decision latency in ms on purpose: it is a
        # wall-clock observability reading, not simulated time.
        # lint: disable=UNI002
        latency_ms: float,
    ) -> None:
        """One scheduling round produced a joint allocation."""
        self.emit(
            ts_s,
            ev.SCHED_DECISION,
            policy=policy,
            storage_aware=storage_aware,
            num_jobs=num_jobs,
            num_running=num_running,
            gpus_granted=gpus_granted,
            cache_granted_mb=cache_granted_mb,
            io_granted_mbps=io_granted_mbps,
            latency_ms=latency_ms,
        )
        if self.enabled:
            # Window samples: decision latency is wall-clock by design
            # (observability-only, like the latency_ms field itself);
            # queue depth is the jobs visible but not running.
            self.metrics.observe("decision_latency_ms", ts_s, latency_ms)
            self.metrics.observe(
                "queue_depth", ts_s, float(num_jobs - num_running)
            )

    def alloc_change(
        self,
        ts_s: float,
        job_id: str,
        gpus_before: float,
        gpus_after: float,
    ) -> None:
        """A job's GPU grant changed between rounds."""
        self.emit(
            ts_s,
            ev.ALLOC_CHANGE,
            job_id,
            gpus_before=gpus_before,
            gpus_after=gpus_after,
        )

    def cache_admit(
        self,
        ts_s: float,
        key: str,
        delta_mb: float,
        resident_mb: float,
        via: str,
    ) -> None:
        """Resident bytes of a cache key grew by ``delta_mb``."""
        self.emit(
            ts_s,
            ev.CACHE_ADMIT,
            key=key,
            delta_mb=delta_mb,
            resident_mb=resident_mb,
            via=via,
        )
        if self.enabled:
            self.metrics.inc("cache.admitted_mb", delta_mb)

    def cache_evict(
        self,
        ts_s: float,
        key: str,
        delta_mb: float,
        resident_mb: float,
        reason: str,
    ) -> None:
        """Resident bytes of a cache key shrank by ``delta_mb``."""
        self.emit(
            ts_s,
            ev.CACHE_EVICT,
            key=key,
            delta_mb=delta_mb,
            resident_mb=resident_mb,
            reason=reason,
        )
        if self.enabled:
            self.metrics.inc("cache.evicted_mb", delta_mb)

    def promote_effective(
        self,
        ts_s: float,
        job_id: str,
        key: str,
        effective_mb: float,
        reason: str,
    ) -> None:
        """A job's resident bytes became usable for hits (§6)."""
        self.emit(
            ts_s,
            ev.PROMOTE_EFFECTIVE,
            job_id,
            key=key,
            effective_mb=effective_mb,
            reason=reason,
        )

    def epoch_boundary(self, ts_s: float, job_id: str, epoch: int) -> None:
        """A job finished (non-final) epoch number ``epoch``."""
        self.emit(ts_s, ev.EPOCH_BOUNDARY, job_id, epoch=epoch)

    def io_throttle(
        self,
        ts_s: float,
        job_id: str,
        desired_mbps: float,
        hit_ratio: float,
        demand_mbps: float,
        grant_mbps: float,
    ) -> None:
        """A job's remote-IO grant for the coming decision round."""
        capped = grant_mbps < demand_mbps - 1e-9
        self.emit(
            ts_s,
            ev.IO_THROTTLE,
            job_id,
            desired_mbps=desired_mbps,
            hit_ratio=hit_ratio,
            demand_mbps=demand_mbps,
            grant_mbps=grant_mbps,
            capped=capped,
        )
        if self.enabled:
            if capped:
                self.metrics.inc("io.throttled_rounds", job_id=job_id)
            self.metrics.observe("cache_hit_ratio", ts_s, hit_ratio)

    # ------------------------------------------------------------------
    # Fault-subsystem helpers (``repro.faults``).
    # ------------------------------------------------------------------

    def fault_inject(
        self, ts_s: float, kind: str, target: str, magnitude: float
    ) -> None:
        """A fault-schedule entry was applied to the cluster."""
        self.emit(
            ts_s,
            ev.FAULT_INJECT,
            kind=kind,
            target=target,
            magnitude=magnitude,
        )
        if self.enabled:
            self.metrics.inc("faults.injected")

    def node_down(
        self, ts_s: float, kind: str, gpus_lost: float, cache_lost_mb: float
    ) -> None:
        """Cluster capacity shrank: a server crashed or a cache node died."""
        self.emit(
            ts_s,
            ev.NODE_DOWN,
            kind=kind,
            gpus_lost=gpus_lost,
            cache_lost_mb=cache_lost_mb,
        )

    def node_up(
        self,
        ts_s: float,
        kind: str,
        gpus_restored: float,
        cache_restored_mb: float,
    ) -> None:
        """Cluster capacity recovered (the node returns with a cold disk)."""
        self.emit(
            ts_s,
            ev.NODE_UP,
            kind=kind,
            gpus_restored=gpus_restored,
            cache_restored_mb=cache_restored_mb,
        )

    def cache_invalidate(
        self,
        ts_s: float,
        key: str,
        delta_mb: float,
        resident_mb: float,
        cause: str,
    ) -> None:
        """A fault destroyed ``delta_mb`` resident bytes of a cache key."""
        self.emit(
            ts_s,
            ev.CACHE_INVALIDATE,
            key=key,
            delta_mb=delta_mb,
            resident_mb=resident_mb,
            cause=cause,
        )
        if self.enabled:
            self.metrics.inc("cache.invalidated_mb", delta_mb)

    def job_preempt(
        self,
        ts_s: float,
        job_id: str,
        reason: str,
        rollback_mb: float,
        epoch: int,
    ) -> None:
        """A fault preempted a job; it restarts from its last epoch."""
        self.emit(
            ts_s,
            ev.JOB_PREEMPT,
            job_id,
            reason=reason,
            rollback_mb=rollback_mb,
            epoch=epoch,
        )
        if self.enabled:
            self.metrics.inc("faults.preemptions", job_id=job_id)

    def job_restart(
        self, ts_s: float, job_id: str, reason: str, epoch: int
    ) -> None:
        """A preempted job was released back to the scheduler's queue."""
        self.emit(ts_s, ev.JOB_RESTART, job_id, reason=reason, epoch=epoch)

    # ------------------------------------------------------------------
    # Online-service helpers (``repro.serve``; lint rule OBS004 scopes
    # the service-lifecycle emitters to that package).
    # ------------------------------------------------------------------

    def service_start(
        self,
        ts_s: float,
        policy: str,
        cache: str,
        simulator: str,
        gpus: float,
        queue_limit: int,
    ) -> None:
        """The long-running scheduler service came up."""
        self.emit(
            ts_s,
            ev.SERVICE_START,
            policy=policy,
            cache=cache,
            simulator=simulator,
            gpus=gpus,
            queue_limit=queue_limit,
        )

    def service_stop(
        self,
        ts_s: float,
        reason: str,
        jobs_submitted: int,
        jobs_finished: int,
    ) -> None:
        """The service drained and exited."""
        self.emit(
            ts_s,
            ev.SERVICE_STOP,
            reason=reason,
            jobs_submitted=jobs_submitted,
            jobs_finished=jobs_finished,
        )

    def job_reject(
        self, ts_s: float, job_id: str, reason: str, queue_depth: int
    ) -> None:
        """A submission bounced off the admission queue (backpressure)."""
        self.emit(
            ts_s,
            ev.JOB_REJECT,
            job_id,
            reason=reason,
            queue_depth=queue_depth,
        )
        if self.enabled:
            self.metrics.inc("serve.rejected")

    def job_cancel(
        self, ts_s: float, job_id: str, reason: str, work_done_mb: float
    ) -> None:
        """A job was withdrawn online before finishing."""
        self.emit(
            ts_s,
            ev.JOB_CANCEL,
            job_id,
            reason=reason,
            work_done_mb=work_done_mb,
        )

    def clock_set(
        self, ts_s: float, action: str, speedup: float, virtual_s: float
    ) -> None:
        """The service's virtual clock was reconfigured.

        ``speedup`` is virtual seconds per wall second; ``0.0`` encodes
        "as fast as possible" (no wall pacing).
        """
        self.emit(
            ts_s,
            ev.CLOCK_SET,
            action=action,
            speedup=speedup,
            virtual_s=virtual_s,
        )

    # ------------------------------------------------------------------
    # Decision-provenance and SLO helpers (simulator-scoped; lint rule
    # OBS004 confines their emission to ``repro/sim/`` and the prov/slo
    # modules so batch and online runs stay bit-identical).
    # ------------------------------------------------------------------

    def decision_epoch(
        self,
        ts_s: float,
        round: int,
        trigger: str,
        num_running: int,
        num_queued: int,
        gpus_total: float,
        cache_total_mb: float,
        io_total_mbps: float,
    ) -> None:
        """One storage-decision round's cluster-level context."""
        self.emit(
            ts_s,
            ev.DECISION_EPOCH,
            round=round,
            trigger=trigger,
            num_running=num_running,
            num_queued=num_queued,
            gpus_total=gpus_total,
            cache_total_mb=cache_total_mb,
            io_total_mbps=io_total_mbps,
        )

    def decision_job(
        self,
        ts_s: float,
        job_id: str,
        round: int,
        gpus: float,
        cache_mb: float,
        io_mbps: float,
        f_star_mbps: float,
        hit_ratio: float,
        est_mbps: float,
        io_bound: bool,
        eff_cache_mb: float,
        score: float,
        generation: str,
        f_star_gen_mbps: dict,
    ) -> None:
        """One job's Eq. 4 inputs and resulting allocation this round.

        ``generation`` is the GPU generation the job was placed on
        (the cluster's single generation on homogeneous fleets);
        ``f_star_gen_mbps`` maps each candidate generation to the
        job's compute bound there — a one-entry map when the
        scheduler is generation-naive.
        """
        self.emit(
            ts_s,
            ev.DECISION_JOB,
            job_id,
            round=round,
            gpus=gpus,
            cache_mb=cache_mb,
            io_mbps=io_mbps,
            f_star_mbps=f_star_mbps,
            hit_ratio=hit_ratio,
            est_mbps=est_mbps,
            io_bound=io_bound,
            eff_cache_mb=eff_cache_mb,
            score=score,
            generation=generation,
            f_star_gen_mbps=f_star_gen_mbps,
        )

    def slo_warn(
        self,
        ts_s: float,
        job_id: str,
        deadline_s: float,
        elapsed_s: float,
        remaining_s: float,
        ratio: float,
    ) -> None:
        """A job's JCT budget is nearly exhausted (emitted once)."""
        self.emit(
            ts_s,
            ev.SLO_WARN,
            job_id,
            deadline_s=deadline_s,
            elapsed_s=elapsed_s,
            remaining_s=remaining_s,
            ratio=ratio,
        )
        if self.enabled:
            self.metrics.inc("slo.warnings")

    def slo_violation(
        self,
        ts_s: float,
        job_id: str,
        deadline_s: float,
        jct_s: float,
        overrun_s: float,
        state: str,
    ) -> None:
        """A job exceeded its JCT budget (emitted once per job)."""
        self.emit(
            ts_s,
            ev.SLO_VIOLATION,
            job_id,
            deadline_s=deadline_s,
            jct_s=jct_s,
            overrun_s=overrun_s,
            state=state,
        )
        if self.enabled:
            self.metrics.inc("slo.violations")


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
        """Discard the event (every typed helper funnels through here)."""


#: Shared singleton used as the default tracer everywhere.
NULL_TRACER = NullTracer()
