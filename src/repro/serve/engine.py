"""The online engine: one stepped simulator driven by a virtual clock.

:class:`OnlineEngine` owns the run: it builds a simulator over an
*empty* trace, then feeds it submissions and cancellations while pumping
events whose times fall under the :class:`~repro.serve.clock.VirtualClock`
watermark. Because the simulators expose their batch loop as
``begin()``/``step()``/``finish()`` and online submissions insert into
the pending trace in ``(submit_time_s, job_id)`` order, the engine
executes *exactly* the batch code path — same admission order, same
float operations, same event log — which is what the equivalence tests
pin down with ``localize_divergence``.

The engine is transport-agnostic and synchronous: the asyncio server
(:mod:`repro.serve.server`) serialises all calls onto its event loop,
and the tests call it directly. Wall-clock reads here meter observable
latency (admission→placement) only; they never feed back into
scheduling.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

from repro import units
from repro.cluster.hardware import Cluster
from repro.obs.stream import StreamingTracer
from repro.serve.clock import VirtualClock
from repro.serve.protocol import (
    REJECT_DUPLICATE,
    REJECT_INVALID,
    ProtocolError,
)
from repro.serve.services import ServiceStack
from repro.sim.fluid import FluidSimulator
from repro.sim.metrics import RunResult
from repro.sim.minibatch import MinibatchEmulator
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


def _percentile(sorted_samples: List[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(0, min(len(sorted_samples) - 1, math.ceil(q * len(sorted_samples)) - 1))
    return sorted_samples[rank]


class OnlineEngine:
    """Drive one simulator online: submissions in, obs events out.

    Parameters
    ----------
    cluster:
        The hardware the service schedules.
    stack:
        The :class:`~repro.serve.services.ServiceStack` (admission,
        estimator, placement, cache allocation) — its scheduler and
        cache system are the objects the simulator runs.
    clock:
        The virtual clock gating event processing; defaults to an
        unlimited clock (process everything as soon as it is known).
    simulator:
        ``"fluid"`` or ``"minibatch"``.
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
        stack: ServiceStack,
        clock: Optional[VirtualClock] = None,
        simulator: str = "fluid",
        tracer: Optional[StreamingTracer] = None,
        **sim_kwargs,
    ) -> None:
        self.cluster = cluster
        self.stack = stack
        self.clock = clock if clock is not None else VirtualClock()
        self.simulator = simulator
        self.tracer = tracer if tracer is not None else StreamingTracer()
        if simulator == "fluid":
            self.sim = FluidSimulator(
                cluster,
                stack.placement.scheduler,
                stack.cache_alloc.cache_system,
                [],
                tracer=self.tracer,
                **sim_kwargs,
            )
        elif simulator == "minibatch":
            self.sim = MinibatchEmulator(
                cluster,
                stack.placement.scheduler,
                stack.cache_alloc.cache_system,
                [],
                tracer=self.tracer,
                **sim_kwargs,
            )
        else:
            raise ValueError("simulator must be 'fluid' or 'minibatch'")
        #: Dataset instances by name — shared across submissions so jobs
        #: naming the same dataset share cache keys, exactly as a trace
        #: loaded in one go would (``trace_io.load_trace`` semantics).
        self._datasets: Dict[str, object] = {}
        self._states: Dict[str, str] = {}
        #: Wall-clock admission→first-placement latencies, milliseconds.
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
            self.tracer.service_start(
                self.sim.clock_s,
                policy=self.stack.policy,
                cache=self.stack.cache,
                simulator=self.simulator,
                gpus=float(self.cluster.total_gpus),
                queue_limit=self.stack.admission.limit,
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
        self.stack.admission.start_drain()
        if run_dry:
            self.clock.resume(speedup=0)
            while self.sim.step():
                pass
        self.result = self.sim.finish()
        self._stopped = True
        if self.tracer.enabled:
            self.tracer.service_stop(
                self.sim.clock_s,
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
        except ProtocolError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                REJECT_INVALID, f"malformed job payload: {exc}"
            ) from exc
        # Latency metering only — never feeds back into scheduling.
        # lint: disable=DET003
        wall_s = time.perf_counter()
        reason = self.stack.admission.try_admit(job.job_id, wall_s)
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
            self.stack.admission.discard(job.job_id)
            self._reject(job.job_id, REJECT_DUPLICATE)
            raise ProtocolError(REJECT_DUPLICATE, str(exc)) from exc
        self._states[job.job_id] = "accepted"
        self.jobs_submitted += 1
        return {
            "ok": True,
            "job_id": job.job_id,
            "submit_time_s": job.submit_time_s,
            "queue_depth": self.stack.admission.depth,
        }

    def _reject(self, job_id: str, reason: str) -> None:
        if self.tracer.enabled:
            self.tracer.job_reject(
                self.sim.clock_s,
                job_id,
                reason=reason,
                queue_depth=self.stack.admission.depth,
            )

    def cancel(self, job_id: str, reason: str = "user") -> dict:
        """Withdraw a job; raises :class:`ProtocolError` when unknown."""
        found = self.sim.cancel_job(job_id, reason=reason)
        if not found:
            raise ProtocolError(
                REJECT_INVALID, f"no pending or running job {job_id!r}"
            )
        self.stack.admission.discard(job_id)
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
            self.tracer.clock_set(
                self.sim.clock_s,
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
            "services": self.stack.describe(),
            "sched_rounds": self.sim.sched_rounds,
            "loop_events": self.sim.loop_events,
            "events_recorded": len(self.tracer),
        }

    def decision_latency_p99_ms(self) -> float:
        """p99 of the sliding ``decision_latency_ms`` window (wall ms)."""
        window = self.tracer.metrics.window("decision_latency_ms")
        return window.percentile(0.99) if window is not None else 0.0

    def metrics(self) -> dict:
        """Counters/gauges plus serve-level latency percentiles."""
        samples = sorted(self._latency_ms)
        return {
            "ok": True,
            "metrics": self.tracer.metrics.snapshot(),
            "serve": {
                "decisions_total": self.sim.sched_rounds,
                "admit_to_place_ms": {
                    "count": len(samples),
                    "p50": _percentile(samples, 0.50),
                    "p99": _percentile(samples, 0.99),
                },
                "decision_latency_p99_ms": self.decision_latency_p99_ms(),
                "queue_depth": self.stack.admission.depth,
                "rejected_total": self.stack.admission.rejected_total,
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

    def idle(self) -> bool:
        """True when the simulator has nothing pending at any time."""
        return self.sim.next_event_time() is None

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
    def jobs_finished(self) -> int:
        """Submitted jobs that have run to completion."""
        return sum(1 for s in self._states.values() if s == "finished")

    @property
    def latency_samples_ms(self) -> List[float]:
        """Admission→placement latencies recorded so far (wall ms)."""
        return list(self._latency_ms)

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
            submitted_wall = self.stack.admission.mark_placed(job_id)
            if submitted_wall is not None:
                # lint: disable=DET003
                elapsed_s = time.perf_counter() - submitted_wall
                self._latency_ms.append(units.seconds_to_ms(elapsed_s))
        elif etype == "job_preempt":
            self._states[job_id] = "preempted"
        elif etype == "job_restart":
            self._states[job_id] = "running"
        elif etype == "job_finish":
            self._states[job_id] = "finished"
            self.stack.admission.mark_placed(job_id)
        elif etype == "job_cancel":
            self._states[job_id] = "cancelled"
            self.stack.admission.discard(job_id)
