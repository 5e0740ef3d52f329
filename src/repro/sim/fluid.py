"""Fluid event-driven cluster simulator.

This is the reproduction's analog of the paper's ~5.2 kLoC Go simulator
(§7.2). Instead of simulating every mini-batch, it exploits the property
SiloDPerf itself rests on: between *events*, every job's throughput is
constant, so the simulator advances analytically from event to event.

Events
------
* **job arrival / completion / reschedule tick** — the scheduling policy
  runs and produces a fresh joint allocation;
* **epoch boundary** — a job's newly cached items become effective (§6
  "delayed effectiveness") and the storage decision (hit ratios, IO
  grants, placement targets) is recomputed without re-running the policy;
* **sample tick** — a timeline sample is recorded.

Cache dynamics
--------------
Resident bytes per cache key fill at the jobs' miss rates (solving the
exact exponential ODE when sharing jobs may re-fetch already-resident
items), are capped at the system's placement target, and are evicted
randomly (proportional effectiveness loss) when a target shrinks. A job's
*effective* bytes are promoted to the key's resident bytes at each of its
epoch boundaries, and initialised from resident bytes when it starts —
which is how dataset sharing pays off immediately (§7.3).

Backends
--------
The per-event sweeps over the active set (advance, next-event search,
completion/epoch detection) live in a columnar
:class:`~repro.sim.jobtable.JobTable`, and per-key cache residency in a
:class:`~repro.cache.residency.ResidencyStore`; both are numpy-backed
when available and pure Python under ``REPRO_NO_NUMPY=1``, with
bit-identical results either way (the backend equivalence contract
of :mod:`repro.backend` — see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backend import numpy_enabled, require_numpy
from repro.cache.base import (
    CacheSystem,
    StorageBatchHints,
    StorageContext,
    StorageDecision,
)
from repro.cache.residency import make_residency_store
from repro.cluster.hardware import Cluster
from repro.cluster.job import _EPOCH_SNAP_MB, Job, JobPhase, JobProgress
from repro.core.policies.gavel import fairness_ratio
from repro.core.resources import Allocation, ResourceVector
from repro.core.silod import SiloDScheduler
from repro.faults.injector import FaultInjector
from repro.faults.spec import ScheduleLike, as_schedule
from repro.obs.prov import emit_decision_provenance
from repro.obs.slo import SLOTracker
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.jobtable import JobTable
from repro.sim.metrics import JobRecord, RunResult, TimelineSample

#: Work below this many MB counts as "done" (guards float drift).
_WORK_EPS_MB = 1e-3
#: Rate below this many MB/s counts as "stalled".
_RATE_EPS = 1e-9


class _EpochView:
    """Per-allocation-epoch gathers over the running set.

    The storage decision runs on every epoch boundary, but its per-job
    inputs — who is running, their table rows, GPU grants, compute
    bounds, dataset sizes, remote-IO allocations — only change when the
    scheduler re-allocates (membership changes always trigger a
    reschedule before the next decision). Gathering them once per
    allocation epoch turns the per-decision cost from O(jobs) Python
    loops into a few dict lookups.

    The view is rebuilt lazily after every invalidation; consumers must
    treat every field (including ``gpu_grants``) as read-only.
    """

    __slots__ = (
        "running",
        "job_ids",
        "queued",
        "rows",
        "gpu_grants",
        "f_stars",
        "hints",
        "keys_list",
        "key_codes",
        "job_keys",
        "store_rows",
        "store_rows_version",
    )

    running: List[Job]
    job_ids: List[str]
    queued: List[Job]
    rows: List[Optional[int]]
    gpu_grants: Dict[str, float]
    f_stars: List[float]
    hints: StorageBatchHints
    #: Distinct cache keys of the running set, first-sharer order; with
    #: ``key_codes`` (small-int key per running job, numpy) and
    #: ``job_keys`` (key string per running job) these make the rate
    #: recompute's per-key grouping pure array math. ``None`` under the
    #: pure-Python backend.
    keys_list: Optional[List[str]]
    key_codes: object
    job_keys: Optional[List[str]]
    #: Lazy ``resolve_fill_rows`` result over ``keys_list`` (store row
    #: per key code), revalidated against the store's keyset version.
    store_rows: object
    store_rows_version: int


class FluidSimulator:
    """Simulate a (scheduler, cache system) pair over a job trace.

    Parameters
    ----------
    cluster:
        Hardware: GPUs, aggregate cache pool, egress limit.
    scheduler:
        A :class:`SiloDScheduler` (wrap any policy; set
        ``storage_aware=False`` for the decoupled baselines).
    cache_system:
        The cache subsystem enforcing (or deciding) storage.
    jobs:
        The trace. Jobs must have distinct ids.
    reschedule_interval_s:
        Cadence of periodic policy reruns between arrivals/completions.
    sample_interval_s:
        Cadence of timeline samples.
    max_time_s:
        Hard stop; unfinished jobs are reported with no finish time.
    data_manager_crash_times_s:
        Fault injection (§6): at each time the data manager crashes and
        recovers — allocations are reconstructed from the (durable)
        scheduler state and cache content survives on local disk, but any
        in-memory cache-system state (e.g. Quiver's online profiles) is
        lost and a full re-schedule runs.
    server_loss_times_s:
        Fault injection: at each time one server is lost outright; with
        even striping, ``1/num_servers`` of every dataset's resident and
        effective bytes disappear (a *restart* would lose nothing — the
        content is on disk — so this is the harsher case).
    faults:
        A :class:`repro.faults.FaultSchedule` (or sequence of
        :class:`~repro.faults.FaultEvent`) driving the full churn model:
        server crash/recover with job preemption and cache-shard
        invalidation, cache-node loss, bandwidth flaps, and explicit job
        preempt/restart. Events are applied analytically at their exact
        times and every application triggers a reschedule round. An
        empty/absent schedule is a strict no-op. See ``docs/FAULTS.md``.
    tracer:
        Structured-event sink (``repro.obs``). When given, the simulator
        emits the full event schema (job lifecycle, epoch boundaries,
        effectiveness promotions, cache admissions/evictions, allocation
        changes) and propagates the tracer to the scheduler and cache
        system. ``None`` (default) keeps the free no-op tracer.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: SiloDScheduler,
        cache_system: CacheSystem,
        jobs: Sequence[Job],
        reschedule_interval_s: float = 600.0,
        sample_interval_s: float = 600.0,
        max_time_s: Optional[float] = None,
        data_manager_crash_times_s: Sequence[float] = (),
        server_loss_times_s: Sequence[float] = (),
        faults: ScheduleLike = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique")
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
        self._reschedule_interval_s = reschedule_interval_s
        self._sample_interval_s = sample_interval_s
        self._max_time_s = max_time_s
        self._crash_times = sorted(data_manager_crash_times_s)
        self._loss_times = sorted(server_loss_times_s)
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

        #: Event-loop iterations processed (perfbench's events/sec).
        self.loop_events = 0
        #: Scheduling rounds run (perfbench's ``sim.sched_rounds``).
        self.sched_rounds = 0
        #: Storage-decision rounds run; every round gets a unique index
        #: in the ``decision_epoch``/``decision_job`` provenance events
        #: (a policy reschedule and an epoch-boundary decision are
        #: distinct rounds).
        self.decision_rounds = 0
        #: Deadline (``deadline_s``) watcher; checked only from the
        #: event loop so warn/violation sequences are deterministic.
        self._slo = SLOTracker(self._tracer)

        self.clock_s = 0.0
        self._arrival_idx = 0
        self._active: Dict[str, JobProgress] = {}
        self._finished: List[JobProgress] = []
        #: numpy when the vectorized backend was selected at
        #: construction, else ``None``; every structure below follows it.
        self._np = require_numpy() if numpy_enabled() else None
        vectorized = self._np is not None
        #: Per-key residency/target state (dict or numpy columns).
        self._cache = make_residency_store(vectorized)
        #: Columnar per-job progress and rates for the hot sweeps.
        self._table = JobTable(
            capacity=len(jobs),
            rate_eps=_RATE_EPS,
            work_eps_mb=_WORK_EPS_MB,
            snap_mb=_EPOCH_SNAP_MB,
            vectorized=vectorized,
        )
        #: Cache key per admitted job (``cache_key`` is deterministic, so
        #: it is computed once at admission instead of per event).
        self._job_key: Dict[str, str] = {}
        #: ``(key, [(job_id, miss_rate), ...])`` for jobs currently
        #: filling their key, refreshed by every rate recompute — the
        #: advance loop walks this short grouping instead of the whole
        #: active set.
        self._filler_groups: List[Tuple[str, List[Tuple[str, float]]]] = []
        #: ``_filler_groups`` split by contributor count: single-filler
        #: keys run through the store's bulk fill plan, shared keys take
        #: the scalar exponential path (``math.exp`` — deliberately never
        #: vectorized, see docs/PERFORMANCE.md).
        self._filler_singles: List[Tuple[str, float]] = []
        self._filler_multis: List[
            Tuple[str, List[Tuple[str, float]]]
        ] = []
        #: Store-prepared fill plan for the single-filler keys (lazy).
        self._fill_plan = None
        #: Columnar source for the fill plan — ``(epoch view, key codes,
        #: rates)`` from the vectorized rate recompute; ``None`` when the
        #: recompute produced ``_filler_singles`` pairs instead.
        self._fill_src = None
        #: Per-allocation-epoch job gathers (lazy; see ``_epoch_view``).
        self._epoch: Optional[_EpochView] = None
        #: ``(cache_targets, store plan)`` of the last applied decision;
        #: reused while the decision and the key set are unchanged.
        self._targets_plan: Optional[Tuple[Dict[str, float], object]] = None
        #: Active sharers per cache key (admission order), so eviction's
        #: effectiveness scaling touches only the key's own jobs.
        self._key_jobs: Dict[str, List[str]] = {}
        self._effective: Dict[str, float] = {}
        self._epochs_done: Dict[str, int] = {}
        self._allocation = Allocation()
        self._decision = StorageDecision({}, {}, {})
        self._timeline: List[TimelineSample] = []
        #: Tick state armed by :meth:`begin` (instance attributes so the
        #: loop can be driven one event at a time by ``repro.serve``).
        self._next_sample = 0.0
        self._next_reschedule = 0.0
        self._begun = False

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Run to completion (or ``max_time_s``) and return the result."""
        self.begin()
        max_events = 20_000_000
        for _ in range(max_events):
            if not self.step():
                break
        else:
            raise RuntimeError("fluid simulation exceeded the event budget")
        return self.finish()

    def begin(self) -> None:
        """Arm the event loop (idempotent; ``run`` calls it for you).

        The stepped protocol — ``begin()``, then ``step()`` until it
        returns ``False``, then ``finish()`` — is what ``run`` executes
        internally; ``repro.serve`` drives the same three methods one
        event at a time against a virtual clock, so online and batch
        execution share a single code path.
        """
        if self._begun:
            return
        self._begun = True
        self.cache_system.reset()
        self._next_sample = 0.0
        self._next_reschedule = 0.0

    def next_event_time(self) -> Optional[float]:
        """Earliest time the next event can happen (``None`` = never).

        Purely a peek: no state changes. ``repro.serve`` uses it to gate
        :meth:`step` against the virtual clock; the returned time is
        always an exact event time, so a gated driver advances the
        simulation in the same event-sized hops as :meth:`run` (float
        non-associativity makes arbitrary intermediate hops diverge).
        """
        if self._done():
            return None
        t_next = self._peek_next_time()
        return None if math.isinf(t_next) else t_next

    def _peek_next_time(self) -> float:
        """The batch loop's candidate sweep (``inf`` = nothing pending)."""
        candidates = [self._next_arrival_time()]
        if self._active:
            candidates.append(self._next_reschedule)
            candidates.append(self._next_sample)
            candidates.append(self._next_completion_time())
            candidates.append(self._next_epoch_boundary_time())
        if self._crash_times:
            candidates.append(max(self.clock_s, self._crash_times[0]))
        if self._loss_times:
            candidates.append(max(self.clock_s, self._loss_times[0]))
        if self._injector is not None:
            t_fault = self._injector.next_time()
            if t_fault is not None:
                candidates.append(max(self.clock_s, t_fault))
        if self._max_time_s is not None:
            candidates.append(self._max_time_s)
        return min(t for t in candidates if t is not None)

    def step(self, limit_s: Optional[float] = None) -> bool:
        """Process the next event; ``False`` when nothing (more) happened.

        With ``limit_s``, an event strictly beyond that virtual time is
        left unprocessed (and uncounted) — the online driver's gate. The
        ungated call sequence is exactly the body of the historical
        monolithic loop, including the ``loop_events`` accounting.
        """
        if self._done():
            return False
        t_next = self._peek_next_time()
        if limit_s is not None and t_next > limit_s + 1e-9:
            return False
        self.loop_events += 1
        if math.isinf(t_next):
            return False  # nothing can ever happen again
        self._advance_to(t_next)

        if self._max_time_s is not None and self.clock_s >= self._max_time_s:
            return False

        changed = False
        changed |= self._admit_arrivals()
        changed |= self._retire_completions()
        changed |= self._inject_faults()
        changed |= self._apply_fault_schedule()
        epoch_flip = self._promote_epoch_boundaries()

        if changed or self.clock_s >= self._next_reschedule:
            self._reschedule()
            self._next_reschedule = self.clock_s + self._reschedule_interval_s
        elif epoch_flip:
            self._storage_decide(trigger="epoch")
        self._slo.check(self.clock_s)

        if self.clock_s >= self._next_sample:
            self._sample()
            self._next_sample = self.clock_s + self._sample_interval_s
        return True

    def finish(self) -> RunResult:
        """Final sample + counters; returns the run's result."""
        self._sample()
        self._publish_counters()
        return self._result()

    # ------------------------------------------------------------------
    # Online mutation (``repro.serve``).
    # ------------------------------------------------------------------

    def submit_job(self, job: Job) -> None:
        """Inject a job into the pending trace (online admission).

        The job is inserted in ``(submit_time_s, job_id)`` order among
        the not-yet-admitted tail, so the admission sequence — and with
        it every order-sensitive downstream structure — is identical to
        a batch run whose trace contained the job from the start.
        """
        if job.job_id in self._known_ids:
            raise ValueError(f"duplicate job id {job.job_id!r}")
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
        """Withdraw a job (online cancellation); ``True`` if it existed.

        A still-pending job is removed from the trace; an active one
        retires immediately as :attr:`JobPhase.CANCELLED` (no finish
        time) with its cache sharing dissolved, and the scheduler re-runs
        right away — membership changes always trigger a reschedule.
        """
        for idx in range(self._arrival_idx, len(self._trace)):
            if self._trace[idx].job_id == job_id:
                del self._trace[idx]
                self._slo.discard(job_id)
                if self._tracer.enabled:
                    self._tracer.job_cancel(
                        self.clock_s, job_id, reason=reason,
                        work_done_mb=0.0,
                    )
                return True
        progress = self._active.get(job_id)
        if progress is None:
            return False
        row = self._table.row_of(job_id)
        if row is not None:
            progress.work_done_mb = self._table.work_done_mb(row)
            self._table.retire(row)
        progress.phase = JobPhase.CANCELLED
        self._finished.append(progress)
        del self._active[job_id]
        self._blocked.discard(job_id)
        self._slo.discard(job_id)
        if self._tracer.enabled:
            self._tracer.job_cancel(
                self.clock_s, job_id, reason=reason,
                work_done_mb=progress.work_done_mb,
            )
        self._effective.pop(job_id, None)
        sharers = self._key_jobs.get(self._job_key.get(job_id))
        if sharers is not None and job_id in sharers:
            sharers.remove(job_id)
        if self.cache_system.per_job_keys:
            self._cache.pop(job_id)
        self._invalidate_epoch_view()
        self._reschedule()
        self._next_reschedule = self.clock_s + self._reschedule_interval_s
        return True

    def _publish_counters(self) -> None:
        """Push the run's loop/round totals into the obs registry.

        A fresh (disabled) ``NullTracer`` still collects them — counting
        costs nothing in the hot loop and the shared
        :data:`~repro.obs.tracer.NULL_TRACER` singleton is never written.
        """
        if self._tracer is NULL_TRACER:
            return
        self._tracer.metrics.inc("sim.events", float(self.loop_events))
        self._tracer.metrics.inc("sim.sched_rounds", float(self.sched_rounds))

    # ------------------------------------------------------------------
    # Event timing.
    # ------------------------------------------------------------------

    def _done(self) -> bool:
        return self._arrival_idx >= len(self._trace) and not self._active

    def _next_arrival_time(self) -> Optional[float]:
        if self._arrival_idx >= len(self._trace):
            return None
        return max(self.clock_s, self._trace[self._arrival_idx].submit_time_s)

    def _next_completion_time(self) -> float:
        return self._table.next_completion_time(self.clock_s)

    def _next_epoch_boundary_time(self) -> float:
        return self._table.next_epoch_boundary_time(self.clock_s)

    def _key_of(self, job: Job) -> str:
        """The job's cache key (precomputed at admission when possible)."""
        key = self._job_key.get(job.job_id)
        if key is None:
            key = self.cache_system.cache_key(job)
        return key

    # ------------------------------------------------------------------
    # Time advancement.
    # ------------------------------------------------------------------

    def _advance_to(self, t: float) -> None:
        dt = t - self.clock_s
        if dt <= 0:
            self.clock_s = max(self.clock_s, t)
            return
        # Job progress (one masked sweep over the job table).
        self._table.advance(dt)
        # Cache fill. A job's own misses are by definition items it has
        # not read this epoch and that are not effective for it, so they
        # are always *new* to the cache when the job is the key's only
        # filler: resident bytes grow linearly at the miss rate. When
        # several jobs share a key, an item missed by one may already
        # have been fetched by another; the duplicate probability is
        # approximated by the resident fraction, giving the exponential
        # ODE dR/dt = (d - R) * K with K = sum_j m_j / (d - eff_j).
        # Only jobs with a positive miss rate can fill, and that set is
        # fixed between rate recomputes — walk the precomputed list.
        store = self._cache
        tracer = self._tracer
        if tracer.enabled:
            # The tracing path walks every group scalar-wise so each
            # key's cache_admit event carries its exact before/after.
            for key, contribs in self._filler_groups:
                snap = store.snapshot(key)
                if snap is None:
                    continue
                size_mb, resident_mb, target_mb = snap
                if resident_mb >= target_mb - 1e-9:
                    continue
                contributions = [
                    (miss, self._effective.get(job_id, 0.0))
                    for job_id, miss in contribs
                ]
                cap = min(target_mb, size_mb)
                if len(contributions) == 1:
                    miss, _eff = contributions[0]
                    filled = resident_mb + miss * dt
                else:
                    k = sum(
                        miss / max(1e-9, size_mb - eff)
                        for miss, eff in contributions
                    )
                    filled = size_mb - (size_mb - resident_mb) * math.exp(
                        -k * dt
                    )
                before = resident_mb
                new_resident = min(cap, filled)
                store.set_resident_mb(key, new_resident)
                if new_resident - before > 1e-6:
                    tracer.cache_admit(
                        t,
                        key,
                        delta_mb=new_resident - before,
                        resident_mb=new_resident,
                        via="miss",
                    )
        else:
            # Single-filler keys: one store-level bulk plan (linear fill,
            # bit-identical to the scalar arithmetic above). The plan
            # caches the key->row resolution between rate recomputes and
            # reports staleness if the key set changed underneath.
            plan = self._fill_plan
            if plan is None:
                plan = self._build_fill_plan()
            if plan is not None and not store.run_fill_plan(plan, dt):
                # Keyset changed under the plan: re-resolve and retry.
                plan = self._build_fill_plan()
                if plan is not None:
                    store.run_fill_plan(plan, dt)
            # Shared keys solve the exponential ODE with math.exp — kept
            # scalar on purpose: np.exp is not guaranteed bit-identical
            # to libm's exp (see docs/PERFORMANCE.md).
            for key, contribs in self._filler_multis:
                snap = store.snapshot(key)
                if snap is None:
                    continue
                size_mb, resident_mb, target_mb = snap
                if resident_mb >= target_mb - 1e-9:
                    continue
                k = sum(
                    miss
                    / max(1e-9, size_mb - self._effective.get(job_id, 0.0))
                    for job_id, miss in contribs
                )
                filled = size_mb - (size_mb - resident_mb) * math.exp(
                    -k * dt
                )
                store.set_resident_mb(
                    key, min(min(target_mb, size_mb), filled)
                )
        # Hoard-style prefetching: spare egress warms queued datasets.
        if self._decision.prefetch_rates:
            for key, rate in self._decision.prefetch_rates.items():
                snap = store.snapshot(key)
                if snap is None or rate <= 0:
                    continue
                size_mb, resident_mb, target_mb = snap
                cap = min(target_mb, size_mb)
                before = resident_mb
                new_resident = min(cap, resident_mb + rate * dt)
                store.set_resident_mb(key, new_resident)
                if tracer.enabled and new_resident - before > 1e-6:
                    tracer.cache_admit(
                        t,
                        key,
                        delta_mb=new_resident - before,
                        resident_mb=new_resident,
                        via="prefetch",
                    )
        # New admissions may not push the pool past its capacity: data of
        # unallocated (stale) keys is reclaimed to make room, exactly as
        # a real cache evicts unpinned blocks on admission.
        self._reclaim_overshoot()
        self.clock_s = t

    # ------------------------------------------------------------------
    # Event handlers.
    # ------------------------------------------------------------------

    def _admit_arrivals(self) -> bool:
        changed = False
        while (
            self._arrival_idx < len(self._trace)
            and self._trace[self._arrival_idx].submit_time_s
            <= self.clock_s + 1e-9
        ):
            job = self._trace[self._arrival_idx]
            self._arrival_idx += 1
            self._active[job.job_id] = JobProgress(job=job)
            self._epochs_done[job.job_id] = 0
            self._table.admit(
                job.job_id, job.total_work_mb, job.dataset.size_mb
            )
            key = self.cache_system.cache_key(job)
            self._job_key[job.job_id] = key
            self._key_jobs.setdefault(key, []).append(job.job_id)
            if self._tracer.enabled:
                self._tracer.job_submit(
                    job.submit_time_s,
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
            changed = True
        if changed:
            self._invalidate_epoch_view()
        return changed

    def _retire_completions(self) -> bool:
        changed = False
        for row in self._table.completed_rows():
            job_id = self._table.job_id(row)
            progress = self._active[job_id]
            # Sync the (otherwise table-resident) work counter so the
            # progress object retires with its true final state.
            progress.work_done_mb = self._table.work_done_mb(row)
            progress.phase = JobPhase.FINISHED
            progress.finish_time_s = self.clock_s
            self._finished.append(progress)
            del self._active[job_id]
            self._table.retire(row)
            if self._tracer.enabled:
                # epoch_index counts completed epochs at this point
                # (unlike _epochs_done, which excludes the final
                # epoch — its boundary coincides with completion).
                self._tracer.job_finish(
                    self.clock_s,
                    job_id,
                    jct_s=self.clock_s - progress.job.submit_time_s,
                    epochs_done=progress.epoch_index,
                )
            self._slo.finish(job_id, self.clock_s)
            self._effective.pop(job_id, None)
            key = self._job_key.get(job_id)
            sharers = self._key_jobs.get(key)
            if sharers is not None:
                # The emptied list stays: it records "no active sharer"
                # and spares _scale_effective the O(active) fallback scan
                # every time this stale key is later shrunk/reclaimed.
                sharers.remove(job_id)
            if self.cache_system.per_job_keys:
                # Private caches die with their jobs.
                self._cache.pop(job_id)
            changed = True
        if changed:
            self._invalidate_epoch_view()
        return changed

    def _inject_faults(self) -> bool:
        """Apply any due fault-injection events (§6 fault tolerance)."""
        changed = False
        while self._crash_times and self._crash_times[0] <= self.clock_s + 1e-9:
            self._crash_times.pop(0)
            # In-memory cache-system state is gone; allocations and the
            # on-disk cache content survive. Recovery = a fresh schedule.
            self.cache_system.reset()
            changed = True
        while self._loss_times and self._loss_times[0] <= self.clock_s + 1e-9:
            self._loss_times.pop(0)
            n = max(1, len(self.cluster.servers))
            survival = (n - 1) / n
            # Churn is rare and touches every key once; the scan is fine.
            # lint: disable=PERF001
            for key in self._cache.keys():
                self._shrink(
                    key,
                    self._cache.resident_mb(key) * survival,
                    reason="server_loss",
                )
            changed = True
        return changed

    def _apply_fault_schedule(self) -> bool:
        """Apply due ``repro.faults`` schedule entries (churn model).

        Capacity changes take hold analytically at the event's exact
        time; returning ``True`` makes the caller re-run the scheduler,
        so SiloD re-allocates cache within the same round the fault
        lands in.
        """
        if self._injector is None:
            return False
        due = self._injector.pop_due(self.clock_s)
        if not due:
            return False
        for event in due:
            effect = self._injector.apply(event, self.clock_s)
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
                    self._tracer.job_restart(
                        self.clock_s,
                        effect.job_id,
                        reason=event.kind,
                        epoch=self._active[effect.job_id].epoch_index,
                    )
        self.total = self._injector.effective_total(self._base_total)
        self._reclaim_overshoot()
        return True

    def _invalidate_fraction(self, fraction: float, cause: str) -> None:
        """A fault destroyed ``fraction`` of every key's resident bytes.

        Even striping: every dataset loses the same share, and each
        job's effective bytes shrink in ratio (the lost items were a
        uniform sample of what it could hit).
        """
        ratio = max(0.0, 1.0 - fraction)
        tracer = self._tracer
        for key in sorted(self._cache.keys()):
            before = self._cache.resident_mb(key)
            if before <= 0:
                continue
            after = before * ratio
            self._cache.set_resident_mb(key, after)
            if tracer.enabled and before - after > 1e-6:
                tracer.cache_invalidate(
                    self.clock_s,
                    key,
                    delta_mb=before - after,
                    resident_mb=after,
                    cause=cause,
                )
            self._scale_effective(key, ratio)

    def _preempt_job(self, job_id: str, reason: str) -> None:
        """Epoch-granularity restart: roll back to the last boundary."""
        progress = self._active.get(job_id)
        if progress is None:
            return
        row = self._table.row_of(job_id)
        if row is not None:
            progress.work_done_mb = self._table.work_done_mb(row)
        rollback = progress.epoch_position_mb
        progress.work_done_mb = max(0.0, progress.work_done_mb - rollback)
        if row is not None:
            self._table.set_work_done_mb(row, progress.work_done_mb)
        if self._tracer.enabled:
            self._tracer.job_preempt(
                self.clock_s,
                job_id,
                reason=reason,
                rollback_mb=rollback,
                epoch=progress.epoch_index,
            )

    def _promote_epoch_boundaries(self) -> bool:
        """Detect epoch crossings; promote resident -> effective (§6)."""
        flipped = False
        for row, epochs_now in self._table.epoch_flips():
            job_id = self._table.job_id(row)
            job = self._active[job_id].job
            self._epochs_done[job_id] = epochs_now
            self._table.set_epochs_done(row, epochs_now)
            key = self._job_key[job_id]
            snap = self._cache.snapshot(key)
            resident = snap[1] if snap is not None else 0.0
            self._effective[job_id] = min(job.dataset.size_mb, resident)
            if self._tracer.enabled:
                self._tracer.epoch_boundary(
                    self.clock_s, job_id, epoch=epochs_now
                )
                self._tracer.promote_effective(
                    self.clock_s,
                    job_id,
                    key=key,
                    effective_mb=self._effective[job_id],
                    reason="epoch_boundary",
                )
            flipped = True
        return flipped

    # ------------------------------------------------------------------
    # Scheduling and storage decisions.
    # ------------------------------------------------------------------

    def _reschedule(self) -> None:
        self.sched_rounds += 1
        jobs = [
            p.job
            for p in self._active.values()
            if p.job.job_id not in self._blocked
        ]
        tracer = self._tracer
        old_gpus = dict(self._allocation.gpus) if tracer.enabled else {}
        self._allocation = self.scheduler.schedule(
            jobs,
            self.total,
            now_s=self.clock_s,
            effective_cache_mb=lambda job: self._effective.get(
                job.job_id, 0.0
            ),
            attained_service_s=self._attained_service_s,
            # The dict behind the lambda above, for the policies' per-job
            # hot loops (identical values by construction).
            effective_cache_map=self._effective,
        )
        # Mirror the round's generation placement into the job table's
        # gen column; ``generation_of`` reads it back. A one-pool fleet
        # places every job on the reference generation, so nothing is
        # written there.
        if self.scheduler.gpu_pools is not None:
            generations = self.scheduler.last_generations
            default_gen = self.scheduler.default_generation
            for progress in self._active.values():
                job_id = progress.job.job_id
                row = self._table.row_of(job_id)
                if row is not None:
                    self._table.set_generation(
                        row, generations.get(job_id, default_gen)
                    )
        self._invalidate_epoch_view()
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
        for progress in start_candidates:
            job_id = progress.job.job_id
            if self._allocation.gpus_of(job_id) > 0:
                if progress.start_time_s is None:
                    progress.start_time_s = self.clock_s
                    progress.phase = JobPhase.RUNNING
                    # A freshly started job immediately benefits from data
                    # already resident for its dataset (sharing, §7.3).
                    key = self._key_of(progress.job)
                    snap = self._cache.snapshot(key)
                    self._effective[job_id] = min(
                        progress.job.dataset.size_mb,
                        snap[1] if snap is not None else 0.0,
                    )
                    if tracer.enabled:
                        tracer.job_start(
                            self.clock_s,
                            job_id,
                            gpus=self._allocation.gpus_of(job_id),
                            queue_delay_s=self.clock_s
                            - progress.job.submit_time_s,
                        )
                        tracer.promote_effective(
                            self.clock_s,
                            job_id,
                            key=key,
                            effective_mb=self._effective[job_id],
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
                    tracer.alloc_change(
                        self.clock_s,
                        job_id,
                        gpus_before=before,
                        gpus_after=after,
                    )
        self._storage_decide()

    def _attained_service_s(self, job: Job) -> float:
        """GPU-seconds of service the job has attained (for LAS).

        Derived from progress: ``work_done / f*`` is the compute time the
        job has effectively received at its requested GPU count.
        """
        progress = self._active.get(job.job_id)
        if progress is None or job.ideal_throughput_mbps <= 0:
            return 0.0
        row = self._table.row_of(job.job_id)
        work_done_mb = (
            self._table.work_done_mb(row)
            if row is not None
            else progress.work_done_mb
        )
        return work_done_mb / job.ideal_throughput_mbps * job.num_gpus

    def generation_of(self, job_id: str) -> Optional[str]:
        """The GPU generation ``job_id`` is currently placed on.

        Read from the job table's gen column on a mixed fleet (``None``
        before the job's first scheduling round); a one-pool fleet
        answers its reference generation for every admitted job. Unknown
        ids get ``None``.
        """
        row = self._table.row_of(job_id)
        if row is None:
            return None
        if self.scheduler.gpu_pools is None:
            return self.scheduler.default_generation
        return self._table.generation(row)

    def _running_jobs(self) -> List[Job]:
        return [
            p.job
            for p in self._active.values()
            if self._allocation.gpus_of(p.job.job_id) > 0
        ]

    def _invalidate_epoch_view(self) -> None:
        """Drop per-epoch gathers (membership/allocation changed)."""
        self._epoch = None
        self._targets_plan = None

    def _epoch_view(self) -> _EpochView:
        """The current allocation epoch's job gathers (built lazily)."""
        view = self._epoch
        if view is not None:
            return view
        view = _EpochView()
        allocation = self._allocation
        gpu_map = allocation.gpus
        running: List[Job] = []
        queued: List[Job] = []
        for progress in self._active.values():
            job = progress.job
            if gpu_map.get(job.job_id, 0.0) > 0:
                running.append(job)
            else:
                queued.append(job)
        job_ids = [job.job_id for job in running]
        table = self._table
        view.running = running
        view.job_ids = job_ids
        view.queued = queued
        view.rows = [table.row_of(job_id) for job_id in job_ids]
        view.gpu_grants = dict(gpu_map)
        f_stars = self.scheduler.estimator.compute_bound_batch(
            running, [gpu_map.get(job_id, 0.0) for job_id in job_ids]
        )
        view.f_stars = f_stars
        rates_arr = size_arr = io_alloc_arr = None
        view.keys_list = view.key_codes = view.job_keys = None
        view.store_rows = None
        view.store_rows_version = -1
        np = self._np
        if np is not None and running:
            n = len(running)
            rates_arr = np.asarray(f_stars, float)
            size_arr = np.fromiter(
                (job.dataset.size_mb for job in running), float, count=n
            )
            io_map = allocation.remote_io
            io_alloc_arr = np.fromiter(
                (io_map.get(job_id, 0.0) for job_id in job_ids),
                float,
                count=n,
            )
            # Key identity per running job, encoded as small ints so the
            # rate recompute can group fillers by key without a per-job
            # Python loop.
            key_index: Dict[str, int] = {}
            keys_list: List[str] = []
            job_keys: List[str] = []
            codes: List[int] = []
            for job in running:
                key = self._key_of(job)
                job_keys.append(key)
                code = key_index.get(key)
                if code is None:
                    code = len(keys_list)
                    key_index[key] = code
                    keys_list.append(key)
                codes.append(code)
            view.keys_list = keys_list
            view.key_codes = np.asarray(codes, dtype=np.intp)
            view.job_keys = job_keys
        # The positive-grant filter every decide would rebuild; the
        # epoch's decisions share this one dict (read-only per the
        # hints contract).
        targets = {
            name: cache_mb
            for name, cache_mb in allocation.cache.items()
            if cache_mb > 0
        }
        view.hints = StorageBatchHints(
            job_ids=job_ids,
            rates=f_stars,
            effective=self._effective,
            rates_arr=rates_arr,
            size_arr=size_arr,
            io_alloc_arr=io_alloc_arr,
            targets=targets,
        )
        self._epoch = view
        return view

    def _storage_decide(self, trigger: str = "reschedule") -> None:
        self.decision_rounds += 1
        view = self._epoch_view()
        ctx = StorageContext(
            running_jobs=view.running,
            gpu_grants=view.gpu_grants,
            total_gpus=self.total.gpus,
            total_cache_mb=self.total.cache_mb,
            total_io_mbps=self.total.remote_io_mbps,
            effective_mb=lambda job: self._effective.get(job.job_id, 0.0),
            first_epoch_done=lambda job: self._epochs_done.get(
                job.job_id, 0
            )
            > 0,
            estimator=self.scheduler.estimator,
            clock_s=self.clock_s,
            scheduler_allocation=self._allocation,
            queued_jobs=view.queued,
            tracer=self._tracer,
            batch=view.hints,
        )
        decision = self.cache_system.reallocate(ctx)
        if decision is self._decision:
            # The cache system handed back the decision already in force
            # (same allocation epoch, same effective bytes): its targets
            # are applied — fills cap at min(target, size), so a replay
            # finds no over-target key — and the rates are a pure
            # function of the decision and the epoch view. Only the
            # pool-capacity check runs again.
            self._reclaim_overshoot()
        else:
            self._decision = decision
            self._apply_targets()
            self._recompute_rates(view.running)
        if self._tracer.enabled:
            emit_decision_provenance(
                self._tracer,
                self.clock_s,
                self.decision_rounds,
                trigger,
                view.running,
                len(view.queued),
                self.total.gpus,
                self.total.cache_mb,
                self.total.remote_io_mbps,
                view.gpu_grants,
                self._key_of,
                self._decision.cache_targets,
                self._decision.hit_ratios,
                self._decision.io_grants,
                dict(zip(view.job_ids, view.f_stars)),
                lambda job: self._effective.get(job.job_id, 0.0),
                self.scheduler.last_scores,
                generations=self.scheduler.last_generations,
                gen_f_stars=self.scheduler.last_gen_scores,
                default_generation=self.scheduler.default_generation,
            )

    def _apply_targets(self) -> None:
        targets = self._decision.cache_targets
        store = self._cache
        cached = self._targets_plan
        if cached is not None and cached[0] == targets:
            # Same decision against the same key set: replay the
            # store-prepared plan (clear_targets_except is a no-op — no
            # key gained a target since the full application below).
            over = store.apply_targets_prepared(cached[1])
            if over is not None:
                for key, new_target in over:
                    self._shrink(key, new_target)
                self._reclaim_overshoot()
                return
        # Dataset size per targeted key, from its most recently admitted
        # active sharer — the job whose write would win the historical
        # full scan over the active set.
        sizes = {}
        for key in targets:
            sharers = self._key_jobs.get(key)
            if sharers:
                sizes[key] = self._active[
                    sharers[-1]
                ].job.dataset.size_mb
        # Keys the current decision does not mention are unallocated:
        # their target drops to zero so the oversubscription pass below
        # can reclaim them. Their data stays resident opportunistically
        # until that happens (uniform caching never evicts eagerly).
        self._cache.clear_targets_except(targets)
        plan = store.prepare_targets(targets, sizes)
        self._targets_plan = (dict(targets), plan)
        for key, new_target in store.apply_targets_prepared(plan) or ():
            self._shrink(key, new_target)
        # Keys without a current target keep their data only while the
        # total pool is not oversubscribed (uniform caching never evicts
        # eagerly); stale keys are evicted first when space is needed.
        self._reclaim_overshoot()

    def _reclaim_overshoot(self) -> None:
        """Keep total resident bytes within the pool capacity.

        Over-target keys (stale data first — smallest targets) are shrunk
        until the pool fits; if every key is exactly at target and the
        targets themselves oversubscribe (a misbehaving cache system),
        everything is scaled back proportionally as a backstop.
        """
        store = self._cache
        overshoot = store.total_resident_mb() - self.total.cache_mb
        if overshoot <= 1e-6:
            return
        # The store pre-filters to over-resident keys in stale-first
        # order; the cut sequence stays a Python loop because the
        # running `overshoot -= cut` subtraction chain is order- and
        # rounding-sensitive.
        for key, resident_mb, target_mb in store.reclaim_candidates():
            cut = min(resident_mb - target_mb, overshoot)
            self._shrink(key, resident_mb - cut, reason="reclaim")
            overshoot -= cut
            if overshoot <= 1e-6:
                return
        if overshoot > 1e-6:
            total = store.total_resident_mb()
            if total > 0:
                factor = self.total.cache_mb / total
                # Proportional backstop: already off-nominal, full scan.
                # lint: disable=PERF001
                for key in store.keys():
                    self._shrink(
                        key,
                        store.resident_mb(key) * factor,
                        reason="reclaim",
                    )

    def _shrink(
        self,
        key: str,
        new_mb: float,
        reason: str = "target_shrink",
    ) -> None:
        """Random eviction to ``new_mb``: effectiveness shrinks in ratio."""
        before = self._cache.resident_mb(key)
        if before <= 0:
            return
        ratio = max(0.0, new_mb) / before
        after = max(0.0, new_mb)
        self._cache.set_resident_mb(key, after)
        if self._tracer.enabled and before - after > 1e-6:
            self._tracer.cache_evict(
                self.clock_s,
                key,
                delta_mb=before - after,
                resident_mb=after,
                reason=reason,
            )
        self._scale_effective(key, ratio)

    def _scale_effective(self, key: str, ratio: float) -> None:
        """Shrink every sharer's effective bytes after a random eviction."""
        job_ids = self._key_jobs.get(key)
        if job_ids is None:
            # No admitted sharer tracks this key (e.g. state injected by
            # white-box tests): fall back to scanning the active set.
            job_ids = [
                p.job.job_id
                for p in self._active.values()
                if self._key_of(p.job) == key
            ]
        for job_id in job_ids:
            self._effective[job_id] = (
                self._effective.get(job_id, 0.0) * ratio
            )

    def _recompute_rates(self, running: Sequence[Job]) -> None:
        table = self._table
        table.clear_rates()
        view = self._epoch
        if view is not None and view.running is running:
            # The per-epoch gathers cover exactly this job list.
            running = view.running
            f_stars = view.f_stars
            job_ids = view.job_ids
            rows = view.rows
            f_arr = view.hints.rates_arr
        else:
            view = None
            running = list(running)
            f_stars = self.scheduler.estimator.compute_bound_batch(
                running,
                [self._allocation.gpus_of(job.job_id) for job in running],
            )
            job_ids = [job.job_id for job in running]
            rows = [table.row_of(job_id) for job_id in job_ids]
            f_arr = None
        hit_ratios = self._decision.hit_ratios
        io_grants = self._decision.io_grants
        n = len(running)
        groups: Dict[str, List[Tuple[str, float]]] = {}
        np = self._np
        if np is not None and n >= 8:
            if f_arr is None:
                f_arr = np.asarray(f_stars, float)
            batch = self._decision.batch
            if batch is not None and batch.job_ids is job_ids:
                # The decision's columnar mirror is aligned with this
                # epoch's job list — skip the dict gathers entirely.
                hit_src = batch.hit_arr
                grant = batch.io_grant_arr
            else:
                hit_src = np.fromiter(
                    (hit_ratios.get(jid, 0.0) for jid in job_ids),
                    float,
                    count=n,
                )
                grant = np.fromiter(
                    (io_grants.get(jid, 0.0) for jid in job_ids),
                    float,
                    count=n,
                )
            hit = np.minimum(1.0, np.maximum(0.0, hit_src))
            miss = 1.0 - hit
            # Same selection as the scalar branch below: the division's
            # inf/nan where miss vanishes is discarded by the where().
            with np.errstate(divide="ignore", invalid="ignore"):
                io_rate = grant / miss
            rate_arr = np.where(
                miss <= 1e-12, f_arr, np.minimum(f_arr, io_rate)
            )
            miss_arr = rate_arr * miss
            table.set_rates_bulk(rows, rate_arr, miss_arr)
            if (
                view is not None
                and view.key_codes is not None
                and not self._tracer.enabled
                and self._cache.backend == "vectorized"
            ):
                # Columnar grouping: count positive-miss fillers per key
                # with bincount; single-filler keys become the fill
                # plan's (code, rate) columns directly, shared keys drop
                # to the (short) scalar exponential list. No events are
                # emitted in this mode, so ``_filler_groups`` (the
                # traced walk's structure) stays empty.
                codes = view.key_codes
                pos = np.nonzero(miss_arr > 0)[0]
                singles_codes = rates_of_singles = None
                multis: Dict[str, List[Tuple[str, float]]] = {}
                if pos.size:
                    counts = np.bincount(
                        codes[pos], minlength=len(view.keys_list)
                    )
                    sharers = counts[codes[pos]]
                    single_i = pos[sharers == 1]
                    if single_i.size:
                        singles_codes = codes[single_i]
                        rates_of_singles = miss_arr[single_i]
                    multi_i = pos[sharers > 1]
                    if multi_i.size:
                        job_keys = view.job_keys
                        for i, miss_rate in zip(
                            multi_i.tolist(),
                            miss_arr[multi_i].tolist(),
                        ):
                            multis.setdefault(job_keys[i], []).append(
                                (job_ids[i], miss_rate)
                            )
                self._filler_groups = []
                self._filler_singles = []
                self._filler_multis = list(multis.items())
                self._fill_src = (
                    (view, singles_codes, rates_of_singles)
                    if singles_codes is not None
                    else None
                )
                self._fill_plan = None
                return
            miss_list = miss_arr.tolist()
            for i in np.nonzero(miss_arr > 0)[0].tolist():
                job_id = job_ids[i]
                groups.setdefault(self._job_key[job_id], []).append(
                    (job_id, miss_list[i])
                )
        else:
            rates: List[float] = []
            miss_rates: List[float] = []
            for job_id, f_star in zip(job_ids, f_stars):
                hit = min(1.0, max(0.0, hit_ratios.get(job_id, 0.0)))
                miss = 1.0 - hit
                grant = io_grants.get(job_id, 0.0)
                if miss <= 1e-12:
                    rate = f_star
                else:
                    rate = min(f_star, grant / miss)
                miss_rate = rate * miss
                rates.append(rate)
                miss_rates.append(miss_rate)
                if miss_rate > 0:
                    groups.setdefault(self._job_key[job_id], []).append(
                        (job_id, miss_rate)
                    )
            table.set_rates_bulk(rows, rates, miss_rates)
        # Only these jobs can fill the cache until the next recompute;
        # _advance_to walks this per-key grouping (keys in first-filler
        # order, contributions in running order) instead of the whole
        # active set. Single-filler keys (linear fill) additionally get
        # a store-level bulk plan; shared keys keep the scalar
        # exponential path.
        self._filler_groups = list(groups.items())
        singles: List[Tuple[str, float]] = []
        multis: List[Tuple[str, List[Tuple[str, float]]]] = []
        for key, contribs in self._filler_groups:
            if len(contribs) == 1:
                singles.append((key, contribs[0][1]))
            else:
                multis.append((key, contribs))
        self._filler_singles = singles
        self._filler_multis = multis
        self._fill_src = None
        self._fill_plan = None

    def _build_fill_plan(self):
        """Assemble the store fill plan for the current single fillers.

        The columnar source resolves key codes to store rows through the
        epoch view's (keyset-versioned) row cache — missing keys are
        dropped exactly as ``make_fill_plan`` skips them; the pair-list
        source delegates to the store. Returns ``None`` when there is
        nothing to fill.
        """
        store = self._cache
        src = self._fill_src
        if src is not None:
            view, codes, rates = src
            if (
                view.store_rows is None
                or view.store_rows_version != store.keyset_version
            ):
                view.store_rows_version, view.store_rows = (
                    store.resolve_fill_rows(view.keys_list)
                )
            rows = view.store_rows[codes]
            found = rows >= 0
            if not found.all():
                rows = rows[found]
                rates = rates[found]
            plan = store.fill_plan_from_rows(
                view.store_rows_version, rows, rates
            )
        elif self._filler_singles:
            plan = store.make_fill_plan(self._filler_singles)
        else:
            plan = None
        self._fill_plan = plan
        return plan

    # ------------------------------------------------------------------
    # Sampling and results.
    # ------------------------------------------------------------------

    def _sample(self) -> None:
        view = self._epoch_view()
        running = view.running
        table = self._table
        estimator = self.scheduler.estimator
        ideal = sum(view.f_stars)
        throughput: Dict[str, float] = {}
        miss_rate: Dict[str, float] = {}
        for job, row in zip(running, view.rows):
            if row is not None:
                throughput[job.job_id] = table.rate(row)
                miss_rate[job.job_id] = table.miss_rate(row)
        achieved = sum(throughput.get(j.job_id, 0.0) for j in running)
        io_used = sum(miss_rate.get(j.job_id, 0.0) for j in running)
        mature = [
            job
            for job in running
            if self._epochs_done.get(job.job_id, 0) > 0
        ]
        fairness = fairness_ratio(
            mature,
            throughput,
            self.total,
            estimator,
            storage_aware=True,
            num_jobs=len(running),
        )
        # Figure 8's view: bytes allocated to *running* jobs (stale data
        # of departed jobs lingers but is not "allocated") vs the bytes
        # their jobs can actually hit.
        live_keys = {self._key_of(job) for job in running}
        resident = sum(
            self._cache.resident_mb(key)
            for key in self._cache.keys()
            if key in live_keys
        )
        by_key: Dict[str, float] = {}
        for job in running:
            key = self._key_of(job)
            by_key[key] = max(
                by_key.get(key, 0.0), self._effective.get(job.job_id, 0.0)
            )
        effective = sum(by_key.values())
        self._timeline.append(
            TimelineSample(
                time_s=self.clock_s,
                running_jobs=len(running),
                queued_jobs=len(self._active) - len(running),
                total_throughput_mbps=achieved,
                ideal_throughput_mbps=ideal,
                remote_io_used_mbps=io_used,
                fairness_ratio=fairness,
                resident_cache_mb=resident,
                effective_cache_mb=effective,
            )
        )

    def _result(self) -> RunResult:
        records = []
        all_progress = self._finished + list(self._active.values())
        for progress in sorted(
            all_progress, key=lambda p: p.job.submit_time_s
        ):
            job = progress.job
            records.append(
                JobRecord(
                    job_id=job.job_id,
                    model=job.model,
                    dataset=job.dataset.name,
                    num_gpus=job.num_gpus,
                    submit_time_s=job.submit_time_s,
                    start_time_s=progress.start_time_s,
                    finish_time_s=progress.finish_time_s,
                )
            )
        return RunResult(
            scheduler_name=self.scheduler.policy.name,
            cache_name=self.cache_system.name,
            records=records,
            timeline=self._timeline,
            end_time_s=self.clock_s,
        )
