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

Job table and residency store
-----------------------------
The per-event sweeps over the active set (advance, next-event search,
completion/epoch detection) live in a :class:`~repro.sim.jobtable.JobTable`,
and per-key cache residency in a
:class:`~repro.cache.residency.DictResidencyStore`. Both are plain
Python: every run takes the same numeric path (docs/PERFORMANCE.md has
the measurements behind that choice).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.base import CacheSystem, StorageContext, StorageDecision
from repro.cache.residency import DictResidencyStore
from repro.cluster.hardware import Cluster
from repro.cluster.job import _EPOCH_SNAP_MB, Job, JobPhase, JobProgress
from repro.core.perf_model import achieved_rate
from repro.core.silod import SiloDScheduler
from repro.faults.spec import ScheduleLike
# Not called here (the kernel emits provenance): kept as a module name
# because perfbench's layer test checks its by-name rebinding here.
from repro.obs.prov import emit_decision_provenance  # noqa: F401
from repro.obs.tracer import Tracer
from repro.sim.jobtable import JobTable
from repro.sim.kernel import SimulatorKernel

#: Work below this many MB counts as "done" (guards float drift).
_WORK_EPS_MB = 1e-3
#: Rate below this many MB/s counts as "stalled".
_RATE_EPS = 1e-9


class FluidSimulator(SimulatorKernel):
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
        super().__init__(
            cluster, scheduler, cache_system, jobs,
            sample_interval_s, max_time_s, faults, tracer,
        )
        self._reschedule_interval_s = reschedule_interval_s
        self._crash_times = sorted(data_manager_crash_times_s)
        self._loss_times = sorted(server_loss_times_s)
        #: Per-key residency/target state.
        self._cache = DictResidencyStore()
        #: Per-job progress and rates for the hot sweeps.
        self._table = JobTable(
            rate_eps=_RATE_EPS,
            work_eps_mb=_WORK_EPS_MB,
            snap_mb=_EPOCH_SNAP_MB,
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
        #: keys run as the store's fill plan (a linear fill), shared keys
        #: take the exponential path (``math.exp``).
        self._fill_plan: List[Tuple[str, float]] = []
        self._filler_multis: List[
            Tuple[str, List[Tuple[str, float]]]
        ] = []
        #: Active sharers per cache key (admission order), so eviction's
        #: effectiveness scaling touches only the key's own jobs.
        self._key_jobs: Dict[str, List[str]] = {}
        self._effective: Dict[str, float] = {}
        self._epochs_done: Dict[str, int] = {}
        self._next_reschedule = 0.0

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

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
            self._storage_round("epoch")
        self._slo.check(self.clock_s)

        if self.clock_s >= self._next_sample:
            self._sample()
            self._next_sample = self.clock_s + self._sample_interval_s
        return True

    # ------------------------------------------------------------------
    # Lifecycle hooks (see ``repro.sim.kernel``).
    # ------------------------------------------------------------------

    def _new_state(self, job: Job) -> JobProgress:
        self._epochs_done[job.job_id] = 0
        self._table.admit(job.job_id, job.total_work_mb, job.dataset.size_mb)
        key = self.cache_system.cache_key(job)
        self._job_key[job.job_id] = key
        self._key_jobs.setdefault(key, []).append(job.job_id)
        return JobProgress(job=job)

    def _release(self, progress: JobProgress) -> None:
        job_id = progress.job.job_id
        row = self._table.row_of(job_id)
        if row is not None:
            # Sync the (otherwise table-resident) work counter so the
            # progress object retires with its true final state.
            progress.work_done_mb = self._table.work_done_mb(row)
            self._table.retire(row)
        self._effective.pop(job_id, None)
        # An emptied sharer list stays: the key may still hold data.
        self._key_jobs[self._job_key[job_id]].remove(job_id)
        if self.cache_system.per_job_keys:
            # Private caches die with their jobs.
            self._cache.pop(job_id)

    def _after_cancel(self, progress: JobProgress) -> None:
        """Membership changed: the scheduler re-runs right away."""
        progress.phase = JobPhase.CANCELLED
        self._reschedule()
        self._next_reschedule = self.clock_s + self._reschedule_interval_s

    def _start_job(self, progress: JobProgress) -> Tuple[str, float]:
        # A freshly started job immediately benefits from data already
        # resident for its dataset (sharing, §7.3).
        progress.phase = JobPhase.RUNNING
        job = progress.job
        key = self._job_key[job.job_id]
        snap = self._cache.snapshot(key)
        effective = min(
            job.dataset.size_mb, snap[1] if snap is not None else 0.0
        )
        self._effective[job.job_id] = effective
        return key, effective

    def _effective_map(self) -> Dict[str, float]:
        return self._effective

    def _schedule_args(self) -> dict:
        return {"attained_service_s": self._attained_service_s}

    def _first_epoch_done(self, job: Job) -> bool:
        return self._epochs_done.get(job.job_id, 0) > 0

    def _after_faults(self) -> None:
        self._reclaim_overshoot()

    # ------------------------------------------------------------------
    # Event timing.
    # ------------------------------------------------------------------

    def _next_completion_time(self) -> float:
        return self._table.next_completion_time(self.clock_s)

    def _next_epoch_boundary_time(self) -> float:
        return self._table.next_epoch_boundary_time(self.clock_s)

    # ------------------------------------------------------------------
    # Time advancement.
    # ------------------------------------------------------------------

    def _advance_to(self, t: float) -> None:
        dt = t - self.clock_s
        if dt <= 0:
            self.clock_s = max(self.clock_s, t)
            return
        # Job progress (one sweep over the job table's moving rows).
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
            # Single-filler keys: the store's fill plan (linear fill,
            # bit-identical to the arithmetic above). A dict-store plan
            # never goes stale: it skips keys that have gone.
            if self._fill_plan:
                store.run_fill_plan(self._fill_plan, dt)
            # Shared keys solve the exponential ODE with math.exp.
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

    def _retire_completions(self) -> bool:
        changed = False
        for row in self._table.completed_rows():
            progress = self._active[self._table.job_id(row)]
            progress.phase = JobPhase.FINISHED
            progress.finish_time_s = self.clock_s
            self._retire(progress, self.clock_s)
            changed = True
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

    def _schedule_round(self) -> None:
        super()._schedule_round()
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

    def _apply_decision(
        self, ctx: StorageContext, decision: StorageDecision
    ) -> None:
        if decision is self._decision:
            # The cache system handed back the decision already in force
            # (same allocation, same effective bytes): its targets are
            # applied — fills cap at min(target, size), so a replay
            # finds no over-target key — and the rates are a pure
            # function of the decision and the round view. Only the
            # pool-capacity check runs again.
            self._reclaim_overshoot()
        else:
            self._decision = decision
            self._apply_targets()
            self._recompute_rates()

    def _apply_targets(self) -> None:
        targets = self._decision.cache_targets
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
        for key, new_target in self._cache.apply_targets(targets, sizes):
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
        for job_id in self._key_jobs.get(key, ()):
            self._effective[job_id] = (
                self._effective.get(job_id, 0.0) * ratio
            )

    def _recompute_rates(self) -> None:
        view = self._round_view()
        table = self._table
        table.clear_rates()
        hit_ratios = self._decision.hit_ratios
        io_grants = self._decision.io_grants
        groups: Dict[str, List[Tuple[str, float]]] = {}
        rates: List[float] = []
        miss_rates: List[float] = []
        for job_id, f_star in zip(view.job_ids, view.f_stars):
            hit = min(1.0, max(0.0, hit_ratios.get(job_id, 0.0)))
            rate = achieved_rate(f_star, hit, io_grants.get(job_id, 0.0))
            miss_rate = rate * (1.0 - hit)
            rates.append(rate)
            miss_rates.append(miss_rate)
            if miss_rate > 0:
                groups.setdefault(self._job_key[job_id], []).append(
                    (job_id, miss_rate)
                )
        table.set_rates_bulk(
            [table.row_of(job_id) for job_id in view.job_ids],
            rates,
            miss_rates,
        )
        # Only these jobs can fill the cache until the next recompute;
        # _advance_to walks this per-key grouping (keys in first-filler
        # order, contributions in running order) instead of the whole
        # active set. Single-filler keys (linear fill) additionally get
        # a store fill plan; shared keys keep the exponential path.
        self._filler_groups = list(groups.items())
        singles: List[Tuple[str, float]] = []
        multis: List[Tuple[str, List[Tuple[str, float]]]] = []
        for key, contribs in self._filler_groups:
            if len(contribs) == 1:
                singles.append((key, contribs[0][1]))
            else:
                multis.append((key, contribs))
        self._fill_plan = self._cache.make_fill_plan(singles)
        self._filler_multis = multis

    # ------------------------------------------------------------------
    # Sampling and results.
    # ------------------------------------------------------------------

    def _sample(self) -> None:
        view = self._round_view()
        running = view.running
        table = self._table
        ideal = sum(view.f_stars)
        throughput: Dict[str, float] = {}
        miss_rate: Dict[str, float] = {}
        for job_id in view.job_ids:
            row = table.row_of(job_id)
            throughput[job_id] = table.rate(row)
            miss_rate[job_id] = table.miss_rate(row)
        achieved = sum(throughput.values())
        io_used = sum(miss_rate.values())
        # Figure 8's view: bytes allocated to *running* jobs (stale data
        # of departed jobs lingers but is not "allocated") vs the bytes
        # their jobs can actually hit.
        job_key = self._job_key
        live_keys = {job_key[job_id] for job_id in view.job_ids}
        resident = sum(
            self._cache.resident_mb(key)
            for key in self._cache.keys()
            if key in live_keys
        )
        by_key: Dict[str, float] = {}
        for job_id in view.job_ids:
            key = job_key[job_id]
            by_key[key] = max(
                by_key.get(key, 0.0), self._effective.get(job_id, 0.0)
            )
        self._record_sample(
            running,
            throughput,
            achieved=achieved,
            ideal=ideal,
            io_used=io_used,
            resident=resident,
            effective=sum(by_key.values()),
        )
