"""The online engine: one stepped simulator driven by a virtual clock.

:class:`OnlineEngine` owns the run: it builds a simulator over an
*empty* trace with the batch factory
(:func:`repro.sim.runner.make_simulator`), then feeds it submissions
and cancellations while pumping events whose times fall under the
:class:`~repro.serve.clock.VirtualClock` watermark. Because the
simulators expose their batch loop as ``begin()``/``step()``/``finish()``
and online submissions insert into the pending trace in
``(submit_time_s, job_id)`` order, the engine executes *exactly* the
batch code path — same admission order, same float operations, same
event log — which is what the equivalence tests pin down with
``localize_divergence``. A bounded :class:`AdmissionQueue` in front of
the simulator answers overload with a reason (``queue_full``,
``duplicate_id``, ``shutting_down``), after Blox's decomposed services.

The engine is transport-agnostic and synchronous: the asyncio server
(:mod:`repro.serve.server`) serialises all calls onto its event loop,
and the tests call it directly. Wall-clock reads here meter observable
latency (admission→placement) only; they never feed back into
scheduling.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from typing import Dict, List, Optional

from repro import units
from repro.cluster.hardware import Cluster
from repro.obs import events as ev
from repro.obs.stream import StreamingTracer
from repro.obs.windows import nearest_rank
from repro.serve.clock import VirtualClock
from repro.serve.protocol import (
    REJECT_DUPLICATE,
    REJECT_INVALID,
    REJECT_QUEUE_FULL,
    REJECT_SHUTTING_DOWN,
    ProtocolError,
)
from repro.sim.kernel import check_fits
from repro.sim.metrics import RunResult
from repro.sim.runner import make_simulator
from repro.workloads.trace_io import job_from_dict

#: Engine-side job states, driven off the event stream (not sim
#: internals): accepted → queued (sim admitted) → running → finished,
#: with cancelled/preempted side exits.
JOB_STATES = (
    "accepted",
    "queued",
    "running",
    "preempted",
    "finished",
    "cancelled",
)


class AdmissionQueue:
    """Bounded admission control with machine-readable rejections.

    Tracks jobs from accepted submission until first placement
    (``job_start``). ``try_admit`` either accepts (returns ``None``) or
    answers with one of the protocol reject reasons; the caller emits the
    corresponding ``job_reject`` event so backpressure is observable.
    """

    def __init__(self, limit: int = 64) -> None:
        if limit < 1:
            raise ValueError("admission queue limit must be >= 1")
        self.limit = int(limit)
        #: job_id -> wall-clock submit instant (perf-counter seconds),
        #: used by the engine for admission-to-placement latency.
        self._waiting: Dict[str, float] = {}
        self._seen: set = set()
        self._draining = False
        self.accepted_total = 0
        self.rejected_total = 0

    @property
    def depth(self) -> int:
        """Jobs admitted but not yet placed."""
        return len(self._waiting)

    @property
    def draining(self) -> bool:
        """Whether admission has been closed for shutdown."""
        return self._draining

    def start_drain(self) -> None:
        """Stop accepting new work; queued jobs keep flowing."""
        self._draining = True

    def try_admit(self, job_id: str, wall_s: float) -> Optional[str]:
        """Admit ``job_id`` or return the protocol reject reason."""
        if self._draining:
            self.rejected_total += 1
            return REJECT_SHUTTING_DOWN
        if job_id in self._seen:
            self.rejected_total += 1
            return REJECT_DUPLICATE
        if len(self._waiting) >= self.limit:
            self.rejected_total += 1
            return REJECT_QUEUE_FULL
        self._seen.add(job_id)
        self._waiting[job_id] = wall_s
        self.accepted_total += 1
        return None

    def mark_placed(self, job_id: str) -> Optional[float]:
        """Record first placement; returns the submit wall instant."""
        return self._waiting.pop(job_id, None)

    def discard(self, job_id: str) -> None:
        """Drop a waiting job (cancellation before placement)."""
        self._waiting.pop(job_id, None)


class OnlineEngine:
    """Drive one simulator online: submissions in, obs events out.

    Parameters
    ----------
    cluster:
        The hardware the service schedules.
    policy, cache:
        Registry names of the scheduling policy and the cache system,
        coupled as :func:`repro.sim.runner.make_system` couples them.
    queue_limit:
        Depth of the :class:`AdmissionQueue`.
    clock:
        The virtual clock gating event processing; defaults to an
        unlimited clock (process everything as soon as it is known).
    simulator:
        A name in :data:`repro.sim.runner.SIMULATORS` (``"fluid"`` or
        ``"minibatch"``).
    tracer:
        A :class:`~repro.obs.stream.StreamingTracer`; created when
        omitted. The engine registers its own sink for job-state and
        latency tracking, so callers must not replace it.
    sim_kwargs:
        Forwarded to the simulator constructor (``reschedule_interval_s``,
        ``faults``, ``max_time_s``, ...).
    """

    def __init__(
        self,
        cluster: Cluster,
        policy: str = "fifo",
        cache: str = "silod",
        queue_limit: int = 64,
        clock: Optional[VirtualClock] = None,
        simulator: str = "fluid",
        tracer: Optional[StreamingTracer] = None,
        **sim_kwargs,
    ) -> None:
        self.policy = policy
        self.cache = cache
        self.admission = AdmissionQueue(limit=queue_limit)
        self.clock = clock if clock is not None else VirtualClock()
        self.simulator = simulator
        self.tracer = tracer if tracer is not None else StreamingTracer()
        self.sim = make_simulator(
            cluster, policy, cache, [], simulator, tracer=self.tracer,
            **sim_kwargs,
        )
        #: Dataset instances by name — shared across submissions so jobs
        #: naming the same dataset share cache keys, exactly as a trace
        #: loaded in one go would (``trace_io.load_trace`` semantics).
        self._datasets: Dict[str, object] = {}
        self._states: Dict[str, str] = {}
        #: Wall-clock admission→first-placement latencies, milliseconds,
        #: kept ascending.
        self._latency_ms: List[float] = []
        self.jobs_submitted = 0
        self.result: Optional[RunResult] = None
        self._stopped = False
        self.tracer.add_sink(self._on_event)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the simulator and announce the service."""
        self.sim.begin()
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.clock_s,
                ev.SERVICE_START,
                policy=self.policy,
                cache=self.cache,
                simulator=self.simulator,
                gpus=float(self.sim.cluster.total_gpus),
                queue_limit=self.admission.limit,
            )

    def drain(self) -> RunResult:
        """Graceful shutdown: refuse new work, run the backlog dry.

        Resumes the clock unlimited, pumps every remaining event, then
        finalises the run and emits ``service_stop``.
        """
        return self._shutdown("drained", run_dry=True)

    def stop(self, reason: str = "stopped") -> RunResult:
        """Immediate shutdown: finalise without processing the backlog."""
        return self._shutdown(reason, run_dry=False)

    def _shutdown(self, reason: str, run_dry: bool) -> RunResult:
        if self._stopped:
            assert self.result is not None
            return self.result
        self.admission.start_drain()
        if run_dry:
            self.clock.resume(speedup=0)
            while self.sim.step():
                pass
        self.result = self.sim.finish()
        self._stopped = True
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.clock_s,
                ev.SERVICE_STOP,
                reason=reason,
                jobs_submitted=self.jobs_submitted,
                jobs_finished=self.jobs_finished,
            )
        return self.result

    @property
    def stopped(self) -> bool:
        """Whether the engine has finalised (drained or stopped)."""
        return self._stopped

    # ------------------------------------------------------------------
    # Requests.
    # ------------------------------------------------------------------

    def submit(self, job_data: dict) -> dict:
        """Admit one trace-format job dict; raises :class:`ProtocolError`.

        A missing ``submit_time_s`` defaults to the simulation's current
        virtual time; a past one is clamped forward to it (the simulator
        cannot admit behind its own clock without rewriting history).
        """
        data = dict(job_data)
        data.setdefault("v", 1)
        job_id = data.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ProtocolError(
                REJECT_INVALID, "job.job_id must be a non-empty string"
            )
        submit_s = data.get("submit_time_s")
        if submit_s is None:
            submit_s = self.sim.clock_s
        elif not isinstance(submit_s, (int, float)):
            raise ProtocolError(
                REJECT_INVALID, "job.submit_time_s must be a number"
            )
        data["submit_time_s"] = max(float(submit_s), self.sim.clock_s)
        try:
            job = job_from_dict(data, self._datasets)
            check_fits(job, self.sim.cluster)
        except ProtocolError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                REJECT_INVALID, f"malformed job payload: {exc}"
            ) from exc
        # Latency metering only — never feeds back into scheduling.
        # lint: disable=DET003
        wall_s = time.perf_counter()
        reason = self.admission.try_admit(job.job_id, wall_s)
        if reason is not None:
            self._reject(job.job_id, reason)
            raise ProtocolError(
                reason, f"submission of {job.job_id!r} rejected: {reason}"
            )
        try:
            self.sim.submit_job(job)
        except ValueError as exc:
            # Known to the simulator (e.g. finished long ago) but not to
            # this admission queue — still a duplicate to the client.
            self.admission.discard(job.job_id)
            self._reject(job.job_id, REJECT_DUPLICATE)
            raise ProtocolError(REJECT_DUPLICATE, str(exc)) from exc
        self._states[job.job_id] = "accepted"
        self.jobs_submitted += 1
        return {
            "ok": True,
            "job_id": job.job_id,
            "submit_time_s": job.submit_time_s,
            "queue_depth": self.admission.depth,
        }

    def _reject(self, job_id: str, reason: str) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.clock_s,
                ev.JOB_REJECT,
                job_id,
                reason=reason,
                queue_depth=self.admission.depth,
            )

    def cancel(self, job_id: str, reason: str = "user") -> dict:
        """Withdraw a job; raises :class:`ProtocolError` when unknown."""
        found = self.sim.cancel_job(job_id, reason=reason)
        if not found:
            raise ProtocolError(
                REJECT_INVALID, f"no pending or running job {job_id!r}"
            )
        self.admission.discard(job_id)
        return {"ok": True, "job_id": job_id, "state": "cancelled"}

    def clock_op(
        self,
        action: str,
        to_s: Optional[float] = None,
        speedup: Optional[float] = None,
    ) -> dict:
        """Apply a ``clock`` request; emits one ``clock_set`` event."""
        if action == "pause":
            self.clock.pause()
        elif action == "resume":
            self.clock.resume(speedup=speedup)
        elif action == "step":
            self.clock.step_to(float(to_s))
        else:  # pragma: no cover - validated at the protocol layer
            raise ProtocolError(REJECT_INVALID, f"bad clock action {action!r}")
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.clock_s,
                ev.CLOCK_SET,
                action=action,
                speedup=self.clock.speedup or 0.0,
                virtual_s=self.sim.clock_s,
            )
        return {
            "ok": True,
            "action": action,
            "paused": self.clock.paused,
            "speedup": self.clock.speedup or 0.0,
            "watermark_s": self._finite_or_none(self.clock.target_s()),
        }

    def status(self) -> dict:
        """The service's current view, for the ``status`` op."""
        counts = {state: 0 for state in JOB_STATES}
        for state in self._states.values():
            counts[state] += 1
        return {
            "ok": True,
            "virtual_time_s": self.sim.clock_s,
            "watermark_s": self._finite_or_none(self.clock.target_s()),
            "paused": self.clock.paused,
            "speedup": self.clock.speedup or 0.0,
            "simulator": self.simulator,
            "jobs_submitted": self.jobs_submitted,
            "jobs_finished": self.jobs_finished,
            "job_counts": counts,
            "jobs": dict(self._states),
            "services": self._services(),
            "sched_rounds": self.sim.sched_rounds,
            "loop_events": self.sim.loop_events,
            "events_recorded": len(self.tracer),
        }

    def decision_latency_p99_ms(self) -> float:
        """p99 of the sliding ``decision_latency_ms`` window (wall ms)."""
        window = self.tracer.metrics.window("decision_latency_ms")
        return window.percentile(0.99) if window is not None else 0.0

    def metrics(self) -> dict:
        """Registry snapshot plus serve-level latency percentiles."""
        samples = self._latency_ms
        return {
            "ok": True,
            "metrics": self.tracer.metrics.snapshot(),
            "serve": {
                "decisions_total": self.sim.sched_rounds,
                "admit_to_place_ms": {
                    "count": len(samples),
                    "p50": nearest_rank(samples, 0.50),
                    "p99": nearest_rank(samples, 0.99),
                },
                "decision_latency_p99_ms": self.decision_latency_p99_ms(),
                "queue_depth": self.admission.depth,
                "rejected_total": self.admission.rejected_total,
            },
        }

    # ------------------------------------------------------------------
    # Pumping.
    # ------------------------------------------------------------------

    def pump(self, max_steps: Optional[int] = None) -> int:
        """Process events up to the clock watermark; returns the count."""
        steps = 0
        while max_steps is None or steps < max_steps:
            if not self.sim.step(limit_s=self.clock.target_s()):
                break
            steps += 1
        return steps

    def seconds_until_next(self) -> Optional[float]:
        """Wall seconds until the next event becomes processable.

        ``None`` means "no wake-up needed" — nothing is pending, or the
        clock is paused (only an external request can unblock either).
        """
        t_next = self.sim.next_event_time()
        if t_next is None:
            return None
        return self.clock.seconds_until(t_next)

    # ------------------------------------------------------------------

    @property
    def stack(self) -> "OnlineEngine":
        """The engine itself: ``perfbench/serve_launcher.py`` reads
        ``engine.stack.admission``. ROADMAP item 15 deletes this alias."""
        return self

    def _services(self) -> dict:
        """Component-by-component identity for ``status`` responses."""
        admission, scheduler = self.admission, self.sim.scheduler
        policy = scheduler.policy
        return {
            "admission": {
                "limit": admission.limit,
                "depth": admission.depth,
                "accepted_total": admission.accepted_total,
                "rejected_total": admission.rejected_total,
                "draining": admission.draining,
            },
            "estimator": {"kind": type(scheduler.estimator).__name__},
            "placement": {
                "policy": policy.name,
                "storage_aware": scheduler.storage_aware,
                "heterogeneity_aware": bool(
                    getattr(policy, "heterogeneity_aware", False)
                ),
                "default_generation": scheduler.default_generation,
                "gpu_pools": dict(scheduler.gpu_pools or {}) or None,
            },
            "cache_alloc": {
                "cache": self.cache,
                "kind": type(self.sim.cache_system).__name__,
            },
        }

    @property
    def jobs_finished(self) -> int:
        """Submitted jobs that have run to completion."""
        return sum(1 for s in self._states.values() if s == "finished")

    @staticmethod
    def _finite_or_none(value: float) -> Optional[float]:
        return value if math.isfinite(value) else None

    def _on_event(self, event) -> None:
        """Tracer sink: job-state machine + placement latency metering."""
        etype = event.etype
        job_id = event.job_id
        if job_id is None:
            return
        if etype == "job_submit":
            # Jobs the sim admits that the engine never saw (initial
            # trace) enter the state machine here.
            self._states[job_id] = "queued"
        elif etype == "job_start":
            self._states[job_id] = "running"
            submitted_wall = self.admission.mark_placed(job_id)
            if submitted_wall is not None:
                # lint: disable=DET003
                elapsed_s = time.perf_counter() - submitted_wall
                insort(self._latency_ms, units.seconds_to_ms(elapsed_s))
        elif etype == "job_preempt":
            self._states[job_id] = "preempted"
        elif etype == "job_restart":
            self._states[job_id] = "running"
        elif etype == "job_finish":
            self._states[job_id] = "finished"
            self.admission.mark_placed(job_id)
        elif etype == "job_cancel":
            self._states[job_id] = "cancelled"
            self.admission.discard(job_id)
