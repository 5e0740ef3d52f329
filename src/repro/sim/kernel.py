"""The job lifecycle both simulators share.

:class:`~repro.sim.fluid.FluidSimulator` and
:class:`~repro.sim.minibatch.MinibatchEmulator` differ only in how they
advance time: the fluid simulator integrates piecewise-constant rates
between events, the emulator walks every item of every job through a
fetch/compute pipeline. Everything around that advance model — the
pending trace, admission, retirement, cancellation, the fault-schedule
loop, the scheduling round's start/allocation bookkeeping, the stepped
``begin``/``step``/``finish`` protocol and the final result — is the
same job lifecycle, so it lives here once. A fidelity gap between the
two (our analog of the paper's Table 6) comes from two sources: the
advance models, and admission timing — the emulator admits a job only
at its next decision tick, the fluid simulator at its submit time.

Subclasses keep ``step`` (and their event-time search) in their own
class body and fill in a few hooks:

* :meth:`_new_state` — the per-job runtime state built at admission; it
  exposes ``job``, ``start_time_s``, ``finish_time_s``, ``done``,
  ``work_done_mb``, ``epochs_done`` (boundaries promoted so far) and
  ``epoch_index`` (the epoch number events report);
* :meth:`_release` — drop a departing job's per-job structures;
* :meth:`_start_job` — first placement: seed the job's effective bytes;
* :meth:`_effective_map` / :meth:`_schedule_args` — the inputs of
  ``scheduler.schedule``: the job_id → effective-bytes map and the
  extra keyword arguments;
* :meth:`_invalidate_fraction`, :meth:`_preempt_job` and
  :meth:`_after_faults` — what a fault does to the cache model;
* :meth:`_after_cancel` — what an active cancellation tears down;
* :meth:`_apply_decision` — install the cache system's answer as
  ``self._decision`` and move the cache model (and rates) to it.

The storage round is shared too: :meth:`_round_view` gathers who is
running, the GPU grants and the ``f*`` column once per allocation (an
arrival joins the view's queue; a removal or a new allocation drops
it), :meth:`_storage_context` wraps that view into the one
:class:`~repro.cache.base.StorageContext` both simulators hand their
cache system, and :meth:`_storage_round` runs the round: count it,
``reallocate``, :meth:`_apply_decision`, then provenance.
:meth:`_first_epoch_done` (the cache systems' warm-up test and the
fairness sample's filter) reads the state's ``epochs_done``.
:meth:`_reschedule` is a scheduling round followed by a storage round.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.base import CacheSystem, StorageContext, StorageDecision
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.core.policies.gavel import fairness_ratio
from repro.core.resources import Allocation, ResourceVector
from repro.core.silod import SiloDScheduler
from repro.faults.injector import FaultInjector
from repro.faults.spec import ScheduleLike, as_schedule
from repro.obs import events as ev
from repro.obs.prov import emit_decision_provenance
from repro.obs.slo import SLOTracker
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.metrics import JobRecord, RunResult, TimelineSample

#: Hard cap on ``step`` calls in one :meth:`SimulatorKernel.run`.
_MAX_STEPS = 20_000_000


def check_fits(job: Job, cluster: Cluster) -> None:
    """Refuse a job that requests more GPUs than the whole fleet has: no
    allocation could ever start it, so a run holding it never drains."""
    if job.num_gpus > cluster.total_gpus:
        raise ValueError(
            f"job {job.job_id!r} requests {job.num_gpus} GPUs; the "
            f"cluster has {cluster.total_gpus}"
        )


class _RoundView:
    """One allocation's gathers over the active set.

    Its fields only change when the scheduler re-allocates or the
    active set changes, so the kernel builds the view lazily and drops
    it at removal and when a scheduling round installs a new allocation
    (a round that keeps the allocation in force keeps it too). An
    admission appends the newcomer to ``queued``: the allocation in
    force cannot grant a job it has never seen. Every storage decision
    and sample in between reads the same lists. Consumers treat every
    field (including ``gpu_grants``) as read-only.
    """

    __slots__ = ("running", "job_ids", "queued", "gpu_grants", "f_stars")

    #: Active jobs holding GPUs, in admission order.
    running: List[Job]
    job_ids: List[str]
    #: The other active jobs, in admission order.
    queued: List[Job]
    gpu_grants: Dict[str, float]
    #: Each running job's compute bound under its grant.
    f_stars: List[float]


class SimulatorKernel:
    """Job lifecycle shared by the fluid simulator and the emulator.

    Parameters are the constructor arguments both simulators take; see
    :class:`~repro.sim.fluid.FluidSimulator` for their meaning.
    """

    #: Whether :meth:`finish` retires completed jobs first: the emulator
    #: notices completions only at interval boundaries, so the last
    #: interval's finishers are still active when its loop stops.
    _retire_at_finish = False

    def __init__(
        self,
        cluster: Cluster,
        scheduler: SiloDScheduler,
        cache_system: CacheSystem,
        jobs: Sequence[Job],
        sample_interval_s: float,
        max_time_s: Optional[float],
        faults: ScheduleLike,
        tracer: Optional[Tracer],
    ) -> None:
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique")
        for job in jobs:
            check_fits(job, cluster)
        #: Every id ever seen (trace + online submissions) — duplicate
        #: submissions are rejected for the life of the simulator, even
        #: after the original job finished.
        self._known_ids = set(ids)
        self.cluster = cluster
        self.scheduler = scheduler
        self.cache_system = cache_system
        # Adopt the cluster's GPU-generation mix (no-op numerics on
        # homogeneous fleets; installs the het estimator on mixed ones).
        scheduler.enable_heterogeneity(cluster)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None:
            scheduler.tracer = tracer
        self.total = ResourceVector(
            gpus=cluster.total_gpus,
            cache_mb=cluster.total_cache_mb,
            remote_io_mbps=cluster.remote_io_mbps,
        )
        self._trace = sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))
        self._sample_interval_s = sample_interval_s
        self._max_time_s = max_time_s
        schedule = as_schedule(faults)
        self._injector = (
            FaultInjector(schedule, cluster, tracer=self._tracer)
            if schedule is not None
            else None
        )
        #: The pristine capacity vector churn is measured against; when a
        #: fault schedule is active, ``self.total`` is rebuilt from it.
        self._base_total = self.total
        #: Jobs held out of scheduling by an explicit ``job_preempt``.
        self._blocked: set = set()

        #: Advance-model work units processed (perfbench's events/sec):
        #: fluid events, or emulated training steps.
        self.loop_events = 0
        #: Scheduling rounds run (perfbench's ``sim.sched_rounds``).
        self.sched_rounds = 0
        #: Storage-decision rounds run; every round gets a unique index
        #: in the ``decision_epoch``/``decision_job`` provenance events.
        self.decision_rounds = 0
        #: Deadline (``deadline_s``) watcher; checked only from the
        #: simulation loop so warn/violation sequences are deterministic.
        self._slo = SLOTracker(self._tracer)

        self.clock_s = 0.0
        self._arrival_idx = 0
        #: Per-job runtime state (see :meth:`_new_state`), admission order.
        self._active: Dict[str, object] = {}
        self._finished: List[object] = []
        self._allocation = Allocation()
        self._decision = StorageDecision({}, {}, {})
        #: The current allocation's gathers (lazy; see :meth:`_round_view`).
        self._view: Optional[_RoundView] = None
        self._timeline: List[TimelineSample] = []
        #: Tick state armed by :meth:`begin` (instance attributes so the
        #: loop can be driven one step at a time by ``repro.serve``).
        self._next_sample = 0.0
        self._begun = False

    # ------------------------------------------------------------------
    # The stepped protocol.
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Run to completion (or ``max_time_s``) and return the result."""
        self.begin()
        for _ in range(_MAX_STEPS):
            if not self.step():
                break
        else:
            raise RuntimeError("simulation exceeded the event budget")
        return self.finish()

    def begin(self) -> None:
        """Arm the loop (idempotent; ``run`` calls it for you).

        The stepped protocol — ``begin()``, then ``step()`` until it
        returns ``False``, then ``finish()`` — is what ``run`` executes
        internally; ``repro.serve`` drives the same three methods one
        step at a time against a virtual clock, so online and batch
        execution share a single code path.
        """
        if self._begun:
            return
        self._begun = True
        self.cache_system.reset()
        self._next_sample = 0.0

    def finish(self) -> RunResult:
        """Final sample; returns the run's result."""
        if self._retire_at_finish:
            self._retire_completions()
        self._sample()
        return self._result()

    def _done(self) -> bool:
        return self._arrival_idx >= len(self._trace) and not self._active

    def _next_arrival_time(self) -> Optional[float]:
        if self._arrival_idx >= len(self._trace):
            return None
        # ``max(clock_s, submit_s)`` as the builtin's own comparison.
        clock_s = self.clock_s
        submit_s = self._trace[self._arrival_idx].submit_time_s
        return submit_s if submit_s > clock_s else clock_s

    # ------------------------------------------------------------------
    # Online mutation (``repro.serve``).
    # ------------------------------------------------------------------

    def submit_job(self, job: Job) -> None:
        """Inject a job into the pending trace (online admission).

        The job is inserted in ``(submit_time_s, job_id)`` order among
        the not-yet-admitted tail, so the admission sequence — and with
        it every order-sensitive downstream structure, down to the
        emulator's per-job shuffle seeds — is identical to a batch run
        whose trace contained the job from the start.
        """
        if job.job_id in self._known_ids:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        check_fits(job, self.cluster)
        self._known_ids.add(job.job_id)
        key = (job.submit_time_s, job.job_id)
        lo, hi = self._arrival_idx, len(self._trace)
        while lo < hi:
            mid = (lo + hi) // 2
            probe = self._trace[mid]
            if (probe.submit_time_s, probe.job_id) <= key:
                lo = mid + 1
            else:
                hi = mid
        self._trace.insert(lo, job)

    def cancel_job(self, job_id: str, reason: str = "user") -> bool:
        """Withdraw a job (online cancellation); ``True`` if it was cancelled.

        A still-pending job is removed from the trace; an active one
        retires immediately with no finish time (then
        :meth:`_after_cancel` runs). A job whose work is complete cannot
        be cancelled: the emulator notices completions at its next
        interval boundary, which retires the job with ``job_finish``
        (fluid retires a completion in the step that reaches it).
        """
        for idx in range(self._arrival_idx, len(self._trace)):
            if self._trace[idx].job_id == job_id:
                del self._trace[idx]
                self._slo.discard(job_id)
                if self._tracer.enabled:
                    self._tracer.emit(
                        self.clock_s, ev.JOB_CANCEL, job_id,
                        reason=reason, work_done_mb=0.0,
                    )
                return True
        state = self._active.get(job_id)
        if state is None or state.done:
            return False
        self._remove(state)
        self._blocked.discard(job_id)
        self._slo.discard(job_id)
        if self._tracer.enabled:
            self._tracer.emit(
                self.clock_s, ev.JOB_CANCEL, job_id,
                reason=reason, work_done_mb=state.work_done_mb,
            )
        self._after_cancel(state)
        return True

    # ------------------------------------------------------------------
    # Admission and retirement.
    # ------------------------------------------------------------------

    def _admit_arrivals(self) -> bool:
        """Admit every trace job due by now; ``True`` if any was."""
        admitted = False
        while (
            self._arrival_idx < len(self._trace)
            and self._trace[self._arrival_idx].submit_time_s
            <= self.clock_s + 1e-9
        ):
            job = self._trace[self._arrival_idx]
            self._arrival_idx += 1
            self._active[job.job_id] = self._new_state(job)
            if self._view is not None:
                # The allocation in force cannot grant a job it has
                # never seen: the newcomer queues, and the view holds.
                self._view.queued.append(job)
            if self._tracer.enabled:
                self._tracer.emit(
                    job.submit_time_s,
                    ev.JOB_SUBMIT,
                    job.job_id,
                    model=job.model,
                    dataset=job.dataset.name,
                    num_gpus=job.num_gpus,
                    dataset_mb=job.dataset.size_mb,
                    total_work_mb=job.total_work_mb,
                    deadline_s=job.deadline_s,
                )
            self._slo.register(
                job.job_id, job.submit_time_s, job.deadline_s
            )
            admitted = True
        return admitted

    def _retire_completions(self) -> bool:
        """Retire every active job whose work is done (admission order)."""
        retired = False
        for job_id in list(self._active):
            state = self._active[job_id]
            if state.done:
                self._retire(
                    state,
                    state.finish_time_s
                    if state.finish_time_s is not None
                    else self.clock_s,
                )
                retired = True
        return retired

    def _retire(self, state, finish_s: float) -> None:
        """Move a completed job to the finished list at ``finish_s``."""
        self._remove(state)
        job = state.job
        if self._tracer.enabled:
            self._tracer.emit(
                finish_s,
                ev.JOB_FINISH,
                job.job_id,
                jct_s=finish_s - job.submit_time_s,
                epochs_done=state.epoch_index,
            )
        self._slo.finish(job.job_id, finish_s)

    def _remove(self, state) -> None:
        del self._active[state.job.job_id]
        self._view = None
        self._release(state)
        self._finished.append(state)

    # ------------------------------------------------------------------
    # Faults (``repro.faults``).
    # ------------------------------------------------------------------

    def _apply_fault_schedule(self) -> bool:
        """Apply due fault-schedule entries; ``True`` if any landed.

        Capacity changes take hold at the current clock (the fluid
        simulator's exact event time, the emulator's next interval
        boundary); the reschedule that follows re-runs the allocator on
        the changed capacity within the same round.
        """
        if self._injector is None:
            return False
        due = self._injector.pop_due(self.clock_s)
        if not due:
            return False
        for event in due:
            effect = self._injector.apply(event, self.clock_s)
            if effect.reset_cache_system:
                self.cache_system.reset()
            if effect.evict_fraction > 0:
                self._invalidate_fraction(
                    effect.evict_fraction, cause=event.kind
                )
            if effect.preempt_gpus > 0:
                victims = self._injector.select_victims(
                    {
                        job_id: self._allocation.gpus_of(job_id)
                        for job_id in self._active
                    },
                    effect.preempt_gpus,
                )
                for job_id in victims:
                    self._preempt_job(job_id, reason=event.kind)
            if event.kind == "job_preempt" and effect.job_id in self._active:
                self._blocked.add(effect.job_id)
                self._preempt_job(effect.job_id, reason=event.kind)
            elif event.kind == "job_restart":
                self._blocked.discard(effect.job_id)
                if self._tracer.enabled and effect.job_id in self._active:
                    self._tracer.emit(
                        self.clock_s,
                        ev.JOB_RESTART,
                        effect.job_id,
                        reason=event.kind,
                        epoch=self._active[effect.job_id].epoch_index,
                    )
        self.total = self._injector.effective_total(self._base_total)
        self._after_faults()
        return True

    # ------------------------------------------------------------------
    # The scheduling round.
    # ------------------------------------------------------------------

    def _schedule_round(self) -> bool:
        """Run the policy and start newly granted jobs.

        The prologue of every reschedule: blocked jobs sit the round
        out, first placements seed effective bytes (:meth:`_start_job`)
        and emit ``job_start``/``promote_effective``, and every changed
        GPU grant emits ``alloc_change`` (sorted by job id). The new
        allocation ends the round view.

        When the scheduler hands back the allocation already in force
        (a repeated round of a ``pure_round`` policy, or a solve equal
        to it; see :meth:`SiloDScheduler.schedule`) and no job was
        removed since it was installed, every granted job has already
        started and the round view still holds: both are kept and it
        returns ``False``. Otherwise it installs the allocation and
        returns ``True``.
        """
        self.sched_rounds += 1
        jobs = [
            state.job
            for state in self._active.values()
            if state.job.job_id not in self._blocked
        ]
        tracer = self._tracer
        old_gpus = dict(self._allocation.gpus) if tracer.enabled else {}
        allocation = self.scheduler.schedule(
            jobs,
            self.total,
            now_s=self.clock_s,
            effective_cache_mb=self._effective_map(),
            **self._schedule_args(),
        )
        if allocation is self._allocation and self._view is not None:
            return False
        self._allocation = allocation
        if tracer.enabled:
            start_candidates = self._active.values()
        else:
            # Only granted jobs can start; walking the (short) grant dict
            # beats scanning the whole active set. State outcomes are
            # identical — starts are independent per job — but the
            # traced path keeps active-set order for stable event order.
            start_candidates = [
                self._active[job_id]
                for job_id, gpus in self._allocation.gpus.items()
                if gpus > 0 and job_id in self._active
            ]
        for state in start_candidates:
            job = state.job
            if (
                self._allocation.gpus_of(job.job_id) > 0
                and state.start_time_s is None
            ):
                state.start_time_s = self.clock_s
                key, effective_mb = self._start_job(state)
                if tracer.enabled:
                    tracer.emit(
                        self.clock_s,
                        ev.JOB_START,
                        job.job_id,
                        gpus=self._allocation.gpus_of(job.job_id),
                        queue_delay_s=self.clock_s - job.submit_time_s,
                    )
                    tracer.emit(
                        self.clock_s,
                        ev.PROMOTE_EFFECTIVE,
                        job.job_id,
                        key=key,
                        effective_mb=effective_mb,
                        reason="job_start",
                    )
        if tracer.enabled:
            seen = set(old_gpus) | set(self._allocation.gpus)
            for job_id in sorted(seen):
                if job_id not in self._active:
                    continue
                before = old_gpus.get(job_id, 0.0)
                after = self._allocation.gpus_of(job_id)
                if abs(before - after) > 1e-9:
                    tracer.emit(
                        self.clock_s,
                        ev.ALLOC_CHANGE,
                        job_id,
                        gpus_before=before,
                        gpus_after=after,
                    )
        self._view = None
        return True

    # ------------------------------------------------------------------
    # The storage round.
    # ------------------------------------------------------------------

    def _round_view(self) -> _RoundView:
        """The current allocation's :class:`_RoundView` (built lazily)."""
        view = self._view
        if view is not None:
            return view
        gpu_map = self._allocation.gpus
        running: List[Job] = []
        queued: List[Job] = []
        for state in self._active.values():
            job = state.job
            if gpu_map.get(job.job_id, 0.0) > 0:
                running.append(job)
            else:
                queued.append(job)
        job_ids = [job.job_id for job in running]
        view = _RoundView()
        view.running = running
        view.job_ids = job_ids
        view.queued = queued
        view.gpu_grants = dict(gpu_map)
        view.f_stars = self.scheduler.estimator.compute_bound_batch(
            running, [gpu_map.get(job_id, 0.0) for job_id in job_ids]
        )
        self._view = view
        return view

    def _reschedule(self) -> None:
        """One full round: the policy, then the storage decision."""
        self._schedule_round()
        self._storage_round("reschedule")

    def _storage_round(self, trigger: str) -> None:
        """Re-divide storage under the allocation in force.

        Counts the round, hands the round's context to
        ``cache_system.reallocate``, installs the answer through
        :meth:`_apply_decision` and emits the round's provenance. The
        effective-bytes map is read after the apply, so provenance
        reports the bytes the new targets left.
        """
        self.decision_rounds += 1
        ctx = self._storage_context()
        self._apply_decision(ctx, self.cache_system.reallocate(ctx))
        if self._tracer.enabled:
            emit_decision_provenance(
                ctx,
                self._decision,
                self.scheduler,
                self.decision_rounds,
                trigger,
                self.cache_system.cache_key,
                self._effective_map(),
            )

    def _storage_context(self) -> StorageContext:
        """This round's input to ``cache_system.reallocate``."""
        view = self._round_view()
        return StorageContext(
            running_jobs=view.running,
            gpu_grants=view.gpu_grants,
            total_gpus=self.total.gpus,
            total_cache_mb=self.total.cache_mb,
            total_io_mbps=self.total.remote_io_mbps,
            effective_mb=self._effective_map(),
            first_epoch_done=self._first_epoch_done,
            estimator=self.scheduler.estimator,
            f_stars=view.f_stars,
            clock_s=self.clock_s,
            scheduler_allocation=self._allocation,
            queued_jobs=view.queued,
            tracer=self._tracer,
        )

    def _first_epoch_done(self, job: Job) -> bool:
        """Whether ``job`` has crossed an epoch boundary."""
        return self._active[job.job_id].epochs_done > 0

    # ------------------------------------------------------------------
    # Sampling and results.
    # ------------------------------------------------------------------

    def _record_sample(
        self,
        running: Sequence[Job],
        throughput: Dict[str, float],
        *,
        achieved: float,
        ideal: float,
        io_used: float,
        resident: float,
        effective: float,
    ) -> None:
        """Append a timeline sample; the fairness ratio is taken over
        the running jobs past their first epoch."""
        mature = [job for job in running if self._first_epoch_done(job)]
        self._timeline.append(
            TimelineSample(
                time_s=self.clock_s,
                running_jobs=len(running),
                queued_jobs=len(self._active) - len(running),
                total_throughput_mbps=achieved,
                ideal_throughput_mbps=ideal,
                remote_io_used_mbps=io_used,
                fairness_ratio=fairness_ratio(
                    mature,
                    throughput,
                    self.total,
                    self.scheduler.estimator,
                    storage_aware=True,
                    num_jobs=len(running),
                ),
                resident_cache_mb=resident,
                effective_cache_mb=effective,
            )
        )

    def _result(self) -> RunResult:
        records = []
        everything = self._finished + list(self._active.values())
        for state in sorted(everything, key=lambda s: s.job.submit_time_s):
            job = state.job
            records.append(
                JobRecord(
                    job_id=job.job_id,
                    model=job.model,
                    dataset=job.dataset.name,
                    num_gpus=job.num_gpus,
                    submit_time_s=job.submit_time_s,
                    start_time_s=state.start_time_s,
                    finish_time_s=state.finish_time_s,
                )
            )
        return RunResult(
            scheduler_name=self.scheduler.policy.name,
            cache_name=self.cache_system.name,
            records=records,
            timeline=self._timeline,
            end_time_s=self.clock_s,
        )

    # ------------------------------------------------------------------
    # Hooks.
    # ------------------------------------------------------------------

    def _schedule_args(self) -> dict:
        """Extra keyword arguments for ``scheduler.schedule``."""
        return {}

    def _after_faults(self) -> None:
        """Follow-up once a batch of faults changed ``self.total``."""

    def _after_cancel(self, state) -> None:
        """Follow-up once an active job was cancelled."""
