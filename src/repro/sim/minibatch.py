"""Minibatch-granularity testbed emulator.

The paper evaluates on real clusters by replacing GPU compute with
``sleep()`` of a profiled per-batch duration ("GPU acceleration", §7) —
the IO path stays real. This module is the same idea one level down: it
emulates, per job, the two-stage pipeline of Figure 5 —

    [data load: cache hit (local disk) | miss (throttled remote fetch)]
      -> [compute: profiled step duration]

over **item-granularity caches** (`repro.cache.items`) with real admission
and eviction, per-epoch reshuffled access orders, and bounded prefetching.
It is deliberately implemented independently of the fluid simulator's
closed-form models so the two can cross-validate (our analog of Table 6's
fidelity columns).

Time is processed in fixed *decision intervals*: at each boundary the
scheduling policy and the cache system re-decide (arrivals, completions,
re-profiling), and within the interval each job advances its pipeline
item by item under fixed grants.
"""

from __future__ import annotations

import math
import random
import zlib
from collections import deque
from typing import Dict, List, Optional, Sequence

from repro.cache.alluxio import AlluxioCache
from repro.cache.base import CacheSystem, StorageContext, StorageDecision
from repro.cache.items import LruItemCache, UniformItemCache
from repro.cache.silod_cache import SiloDDataManager
from repro.core.policies import io_share
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job, JobPhase, JobProgress
from repro.core.policies.gavel import fairness_ratio
from repro.core.resources import Allocation, ResourceVector
from repro.core.silod import SiloDScheduler
from repro.faults.injector import FaultInjector
from repro.faults.spec import ScheduleLike, as_schedule
from repro.obs.prov import emit_decision_provenance
from repro.obs.slo import SLOTracker
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.metrics import JobRecord, RunResult, TimelineSample

#: Cache key used for the shared LRU pool in cache events (the pool is
#: one arena shared by every dataset, unlike the per-key uniform caches).
_LRU_POOL_KEY = "lru_pool"


def _shuffle(rng: random.Random, x: List[int]) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` would.

    The contract is CPython's: the same permutation *and* the same
    generator state afterwards, so every item order (and every draw
    after it) matches ``random.Random.shuffle`` on the running
    interpreter. ``tests/sim/test_minibatch_shuffle.py`` pins it.

    It is the stdlib's Fisher–Yates with ``_randbelow`` inlined. For
    ``i`` from ``len(x) - 1`` down to 1 the stdlib draws
    ``getrandbits(k)`` with ``k = (i + 1).bit_length()`` until the draw
    is ``<= i``, then swaps ``x[i]`` and ``x[r]``. Here ``k`` is
    computed once per power-of-two block of ``i`` values instead of
    once per element, and no method call sits between the draws.
    """
    getrandbits = rng.getrandbits
    hi = len(x) - 1
    while hi > 0:
        k = (hi + 1).bit_length()
        # Every i with (i + 1).bit_length() == k lies in
        # [2**(k-1) - 1, 2**k - 2]; ``stop`` is the exclusive lower end.
        stop = max((1 << (k - 1)) - 2, 0)
        for i in range(hi, stop, -1):
            r = getrandbits(k)
            while r > i:
                r = getrandbits(k)
            x[i], x[r] = x[r], x[i]
        hi = stop


class _JobRuntime:
    """Per-job pipeline state at item granularity."""

    def __init__(
        self,
        job: Job,
        item_size_mb: float,
        seed: int,
        prefetch_depth: int = 16,
    ) -> None:
        self.job = job
        self.item_size_mb = item_size_mb
        self.epoch_items = max(1, int(round(job.dataset.size_mb / item_size_mb)))
        self.total_items = max(
            1, int(round(job.total_work_mb / item_size_mb))
        )
        self.items_done = 0
        self.epoch_pos = 0
        self.epochs_done = 0
        self.effective_items = 0
        self.rng = random.Random(seed)
        self.order: List[int] = list(range(self.epoch_items))
        _shuffle(self.rng, self.order)
        self.io_free_t = 0.0
        self.comp_free_t = 0.0
        # Measured hit statistics feeding the work-conserving bandwidth
        # division used by scheduler-oblivious cache systems.
        self.hits_recent = 0
        self.accesses_recent = 0
        self.prefetch_depth = prefetch_depth
        self.comp_finish_history: deque = deque(maxlen=prefetch_depth)
        #: Assigned GPU generation this round (mirrors the fluid
        #: simulator's job-table gen column); ``None`` until scheduled.
        self.generation: Optional[str] = None
        self.start_time_s: Optional[float] = None
        self.finish_time_s: Optional[float] = None
        # Per-interval accounting for throughput/IO timelines.
        self.bytes_consumed_interval = 0.0
        self.bytes_fetched_interval = 0.0
        # Whether the pipeline ran in the previous interval; after an idle
        # gap its clocks must be re-based to "now".
        self.ran_last_interval = False

    @property
    def done(self) -> bool:
        """Whether every item of the job's work has been consumed."""
        return self.items_done >= self.total_items


class MinibatchEmulator:
    """Item-level pipeline emulator for a (scheduler, cache system) pair.

    Parameters
    ----------
    cluster, scheduler, cache_system, jobs:
        As in :class:`repro.sim.fluid.FluidSimulator`.
    item_size_mb:
        Emulation granularity: datasets are divided into items of this
        size and one training step consumes one item. Hit statistics are
        granularity-independent in expectation; smaller items cost more
        CPU time.
    decision_interval_s:
        Cadence at which policies and grants refresh.
    local_read_mbps:
        Local-disk read bandwidth serving cache hits (Figure 3's premise
        is that hits are effectively never the bottleneck).
    faults:
        A :class:`repro.faults.FaultSchedule` (or sequence of
        :class:`~repro.faults.FaultEvent`), the same spec the fluid
        simulator accepts. Events are applied at the next decision
        interval boundary at or after their scheduled time (batch
        granularity); an empty/absent schedule is a strict no-op. See
        ``docs/FAULTS.md``.
    tracer:
        Structured-event sink (``repro.obs``); same schema as the fluid
        simulator, with per-item cache activity aggregated to one
        ``cache_admit``/``cache_evict`` per key per decision interval.
        ``None`` (default) keeps the free no-op tracer.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: SiloDScheduler,
        cache_system: CacheSystem,
        jobs: Sequence[Job],
        item_size_mb: float = 64.0,
        decision_interval_s: float = 60.0,
        sample_interval_s: float = 600.0,
        local_read_mbps: float = 2000.0,
        seed: int = 0,
        max_time_s: Optional[float] = None,
        faults: ScheduleLike = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique")
        #: Every id ever seen (trace + online submissions).
        self._known_ids = set(ids)
        self.cluster = cluster
        self.scheduler = scheduler
        self.cache_system = cache_system
        # Adopt the cluster's GPU-generation mix (mirrors the fluid
        # simulator: no-op numerics on homogeneous fleets).
        scheduler.enable_heterogeneity(cluster)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None:
            scheduler.tracer = tracer
        #: Items admitted per cache key within the current interval
        #: (flushed to aggregated ``cache_admit`` events).
        self._admits_interval: Dict[str, int] = {}
        self.total = ResourceVector(
            gpus=cluster.total_gpus,
            cache_mb=cluster.total_cache_mb,
            remote_io_mbps=cluster.remote_io_mbps,
        )
        self._trace = sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))
        self._item_size_mb = item_size_mb
        self._interval_s = decision_interval_s
        self._sample_interval_s = sample_interval_s
        self._local_read_mbps = local_read_mbps
        self._seed = seed
        self._max_time_s = max_time_s
        self._is_lru = isinstance(cache_system, AlluxioCache)
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

        #: Training steps (item fetch+compute) emulated — the emulator's
        #: unit of work for perfbench's events/sec.
        self.loop_events = 0
        #: Scheduling rounds run (perfbench's ``sim.sched_rounds``).
        self.sched_rounds = 0
        #: Storage-decision rounds; unique index in the provenance
        #: events (here every round is a reschedule — the emulator has
        #: no separate epoch-triggered decisions).
        self.decision_rounds = 0
        #: Deadline (``deadline_s``) watcher; checked at interval
        #: boundaries only, so warn/violation sequences are
        #: deterministic.
        self._slo = SLOTracker(self._tracer)

        self.clock_s = 0.0
        self._arrival_idx = 0
        self._active: Dict[str, _JobRuntime] = {}
        self._finished: List[_JobRuntime] = []
        self._allocation = Allocation()
        self._decision = StorageDecision({}, {}, {})
        self._uniform_caches: Dict[str, UniformItemCache] = {}
        self._lru_pool = LruItemCache(
            int(cluster.total_cache_mb / item_size_mb)
        )
        self._timeline: List[TimelineSample] = []
        self._last_sample_s = 0.0
        #: Tick state armed by :meth:`begin` (instance attribute so the
        #: loop can be driven one interval at a time by ``repro.serve``).
        self._next_sample = 0.0
        self._begun = False

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Run to completion (or ``max_time_s``) and return the result."""
        self.begin()
        while self.step():
            pass
        return self.finish()

    def begin(self) -> None:
        """Arm the decision loop (idempotent; ``run`` calls it for you).

        Same stepped protocol as the fluid simulator — ``begin()``,
        ``step()`` until ``False``, ``finish()`` — except one step is one
        decision interval (the emulator's native granularity), not one
        event.
        """
        if self._begun:
            return
        self._begun = True
        self.cache_system.reset()
        self._next_sample = 0.0

    def next_event_time(self) -> Optional[float]:
        """Virtual time the next decision interval starts (``None`` = never)."""
        if self._done():
            return None
        if self._max_time_s is not None and self.clock_s >= self._max_time_s:
            return None
        if not self._active and self._arrival_idx < len(self._trace):
            return max(
                self.clock_s, self._trace[self._arrival_idx].submit_time_s
            )
        return self.clock_s

    def step(self, limit_s: Optional[float] = None) -> bool:
        """Run one decision interval; ``False`` when nothing (more) happened.

        With ``limit_s``, an interval starting strictly beyond that
        virtual time is left unprocessed — the online driver's gate.
        """
        t_start = self.next_event_time()
        if t_start is None:
            return False
        if limit_s is not None and t_start > limit_s + 1e-9:
            return False
        if not self._active and self._arrival_idx < len(self._trace):
            self.clock_s = max(
                self.clock_s,
                self._trace[self._arrival_idx].submit_time_s,
            )
        self._admit_arrivals()
        self._retire_completions()
        self._apply_fault_schedule()
        self._reschedule()
        self._slo.check(self.clock_s)
        t_end = self.clock_s + self._interval_s
        self._run_interval(t_end)
        if self.clock_s >= self._next_sample:
            self._sample()
            self._next_sample = self.clock_s + self._sample_interval_s
        self.clock_s = t_end
        return True

    def finish(self) -> RunResult:
        """Final retire + sample + counters; returns the run's result."""
        self._retire_completions()
        self._sample()
        self._publish_counters()
        return self._result()

    # ------------------------------------------------------------------
    # Online mutation (``repro.serve``).
    # ------------------------------------------------------------------

    def submit_job(self, job: Job) -> None:
        """Inject a job into the pending trace (online admission).

        Sorted insertion among the not-yet-admitted tail keeps the
        admission sequence — and the per-job shuffle seeds, which hang
        off the admission index — identical to a batch run whose trace
        contained the job from the start.
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
        retires immediately with no finish time. The re-allocation lands
        at the next decision-interval boundary — batch granularity,
        matching how the emulator applies faults.
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
        rt = self._active.get(job_id)
        if rt is None:
            return False
        self._finished.append(rt)
        del self._active[job_id]
        self._blocked.discard(job_id)
        self._slo.discard(job_id)
        if self.cache_system.per_job_keys:
            self._uniform_caches.pop(job_id, None)
        if self._tracer.enabled:
            self._tracer.job_cancel(
                self.clock_s, job_id, reason=reason,
                work_done_mb=rt.items_done * self._item_size_mb,
            )
        return True

    def _publish_counters(self) -> None:
        """Push the run's step/round totals into the obs registry.

        Mirrors :meth:`repro.sim.fluid.FluidSimulator._publish_counters`;
        the shared :data:`~repro.obs.tracer.NULL_TRACER` singleton is
        never written.
        """
        if self._tracer is NULL_TRACER:
            return
        self._tracer.metrics.inc("sim.events", float(self.loop_events))
        self._tracer.metrics.inc("sim.sched_rounds", float(self.sched_rounds))

    # ------------------------------------------------------------------

    def _done(self) -> bool:
        return self._arrival_idx >= len(self._trace) and not self._active

    def _admit_arrivals(self) -> None:
        while (
            self._arrival_idx < len(self._trace)
            and self._trace[self._arrival_idx].submit_time_s
            <= self.clock_s + 1e-9
        ):
            job = self._trace[self._arrival_idx]
            self._arrival_idx += 1
            runtime = _JobRuntime(
                job,
                self._item_size_mb,
                seed=self._seed * 1_000_003 + self._arrival_idx,
            )
            self._active[job.job_id] = runtime
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

    def _retire_completions(self) -> None:
        for job_id in list(self._active):
            runtime = self._active[job_id]
            if runtime.done:
                self._finished.append(runtime)
                del self._active[job_id]
                if self.cache_system.per_job_keys:
                    self._uniform_caches.pop(job_id, None)
                finish = (
                    runtime.finish_time_s
                    if runtime.finish_time_s is not None
                    else self.clock_s
                )
                if self._tracer.enabled:
                    self._tracer.job_finish(
                        finish,
                        job_id,
                        jct_s=finish - runtime.job.submit_time_s,
                        epochs_done=runtime.epochs_done,
                    )
                self._slo.finish(job_id, finish)

    # ------------------------------------------------------------------
    # Fault schedule (``repro.faults``).
    # ------------------------------------------------------------------

    def _apply_fault_schedule(self) -> None:
        """Apply due fault events at this decision-interval boundary.

        The emulator's analog of the fluid simulator's handler: faults
        land at batch granularity (the first boundary at or after their
        scheduled time), and the reschedule that follows every interval
        re-runs the allocator on the shrunk capacity.
        """
        if self._injector is None:
            return
        due = self._injector.pop_due(self.clock_s)
        if not due:
            return
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
                        epoch=self._active[effect.job_id].epochs_done,
                    )
        self.total = self._injector.effective_total(self._base_total)
        if self._is_lru:
            # The shared pool tracks the (possibly shrunk) capacity; LRU
            # eviction handles any overflow.
            self._lru_pool.resize(
                int(self.total.cache_mb / self._item_size_mb)
            )

    def _invalidate_fraction(self, fraction: float, cause: str) -> None:
        """A fault destroyed ``fraction`` of every cache's items.

        Implemented through the caches' public ``resize``: shrinking to
        the kept size evicts (uniform caches pick victims at random, the
        LRU pool drops its coldest entries), then the capacity is
        restored so refills can proceed.
        """
        keep_ratio = max(0.0, 1.0 - fraction)
        tracer = self._tracer
        if self._is_lru:
            before = self._lru_pool.size
            keep = int(before * keep_ratio)
            if before > 0 and keep < before:
                cap = self._lru_pool.capacity
                self._lru_pool.resize(keep)
                self._lru_pool.resize(cap)
                if tracer.enabled:
                    tracer.cache_invalidate(
                        self.clock_s,
                        _LRU_POOL_KEY,
                        delta_mb=(before - keep) * self._item_size_mb,
                        resident_mb=keep * self._item_size_mb,
                        cause=cause,
                    )
        else:
            for key in sorted(self._uniform_caches):
                cache = self._uniform_caches[key]
                before = cache.size
                keep = int(before * keep_ratio)
                if before <= 0 or keep >= before:
                    continue
                cap = cache.capacity
                cache.resize(keep)
                cache.resize(cap)
                if tracer.enabled:
                    tracer.cache_invalidate(
                        self.clock_s,
                        key,
                        delta_mb=(before - keep) * self._item_size_mb,
                        resident_mb=keep * self._item_size_mb,
                        cause=cause,
                    )
        # Lost items were a uniform sample of what each job could hit.
        for rt in self._active.values():
            rt.effective_items = int(rt.effective_items * keep_ratio)

    def _preempt_job(self, job_id: str, reason: str) -> None:
        """Epoch-granularity restart: replay the current epoch."""
        rt = self._active.get(job_id)
        if rt is None:
            return
        rollback_items = rt.epoch_pos
        rt.items_done = max(0, rt.items_done - rt.epoch_pos)
        rt.epoch_pos = 0
        rt.ran_last_interval = False
        rt.comp_finish_history.clear()
        if self._tracer.enabled:
            self._tracer.job_preempt(
                self.clock_s,
                job_id,
                reason=reason,
                rollback_mb=rollback_items * self._item_size_mb,
                epoch=rt.epochs_done,
            )

    # ------------------------------------------------------------------
    # Scheduling and cache-state plumbing.
    # ------------------------------------------------------------------

    def _cache_items_of(self, key: str) -> int:
        if self._is_lru:
            return self._lru_pool.size
        cache = self._uniform_caches.get(key)
        return cache.size if cache else 0

    def _effective_mb(self, job: Job) -> float:
        runtime = self._active.get(job.job_id)
        if runtime is None:
            return 0.0
        return runtime.effective_items * self._item_size_mb

    def _reschedule(self) -> None:
        self.sched_rounds += 1
        jobs = [
            rt.job
            for rt in self._active.values()
            if rt.job.job_id not in self._blocked
        ]
        tracer = self._tracer
        old_gpus = dict(self._allocation.gpus) if tracer.enabled else {}
        self._allocation = self.scheduler.schedule(
            jobs,
            self.total,
            now_s=self.clock_s,
            effective_cache_mb=self._effective_mb,
        )
        # Mirror the round's generation placement (the fluid simulator's
        # job-table gen column) onto the per-job runtimes.
        generations = self.scheduler.last_generations
        default_gen = self.scheduler.default_generation
        for rt in self._active.values():
            rt.generation = generations.get(
                rt.job.job_id, default_gen
            )
        running = [
            rt.job
            for rt in self._active.values()
            if self._allocation.gpus_of(rt.job.job_id) > 0
        ]
        running_ids = {job.job_id for job in running}
        queued = [
            rt.job
            for rt in self._active.values()
            if rt.job.job_id not in running_ids
        ]
        for rt in self._active.values():
            if (
                self._allocation.gpus_of(rt.job.job_id) > 0
                and rt.start_time_s is None
            ):
                rt.start_time_s = self.clock_s
                key = self.cache_system.cache_key(rt.job)
                rt.effective_items = self._cache_items_of(key)
                if tracer.enabled:
                    job_id = rt.job.job_id
                    tracer.job_start(
                        self.clock_s,
                        job_id,
                        gpus=self._allocation.gpus_of(job_id),
                        queue_delay_s=self.clock_s
                        - rt.job.submit_time_s,
                    )
                    tracer.promote_effective(
                        self.clock_s,
                        job_id,
                        key=key,
                        effective_mb=rt.effective_items
                        * self._item_size_mb,
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
        ctx = StorageContext(
            running_jobs=running,
            gpu_grants=dict(self._allocation.gpus),
            total_gpus=self.total.gpus,
            total_cache_mb=self.total.cache_mb,
            total_io_mbps=self.total.remote_io_mbps,
            effective_mb=self._effective_mb,
            first_epoch_done=lambda job: (
                self._active[job.job_id].epochs_done > 0
                if job.job_id in self._active
                else True
            ),
            estimator=self.scheduler.estimator,
            clock_s=self.clock_s,
            scheduler_allocation=self._allocation,
            queued_jobs=queued,
            tracer=self._tracer,
        )
        self._decision = self.cache_system.reallocate(ctx)
        if not isinstance(self.cache_system, SiloDDataManager):
            self._work_conserving_io_grants(running)
        if not self._is_lru:
            self._apply_uniform_targets(running)
            self._admit_prefetched_items()
        self.decision_rounds += 1
        if tracer.enabled:
            estimator = self.scheduler.estimator
            emit_decision_provenance(
                tracer,
                self.clock_s,
                self.decision_rounds,
                "reschedule",
                running,
                len(queued),
                self.total.gpus,
                self.total.cache_mb,
                self.total.remote_io_mbps,
                dict(self._allocation.gpus),
                self.cache_system.cache_key,
                self._decision.cache_targets,
                self._decision.hit_ratios,
                self._decision.io_grants,
                {
                    job.job_id: estimator.compute_bound(
                        job, self._allocation.gpus_of(job.job_id)
                    )
                    for job in running
                },
                self._effective_mb,
                self.scheduler.last_scores,
                generations=self.scheduler.last_generations,
                gen_f_stars=self.scheduler.last_gen_scores,
                default_generation=self.scheduler.default_generation,
            )

    def _work_conserving_io_grants(self, running: Sequence[Job]) -> None:
        """Re-divide egress over *measured* demands for baseline systems.

        Without scheduler throttling, the account's egress cap is shared
        by the jobs' competing fetch streams, which is work-conserving:
        bandwidth one job does not pull is available to the rest, and the
        division tracks actual (not modelled) miss rates. Each job's
        demand is estimated from its recently observed hit ratio; model
        hit ratios seed jobs without history. Unclaimed bandwidth is
        spread evenly so a job whose model over-promised hits (e.g. a
        stale shared LRU) can still fetch.
        """
        demands = {}
        profile = {}
        for job in running:
            rt = self._active.get(job.job_id)
            f_star = self.scheduler.estimator.compute_bound(
                job, self._allocation.gpus_of(job.job_id)
            )
            if rt is not None and rt.accesses_recent >= 20:
                hit = rt.hits_recent / rt.accesses_recent
            else:
                hit = self._decision.hit_ratios.get(job.job_id, 0.0)
            demands[job.job_id] = f_star * (1.0 - hit)
            profile[job.job_id] = (f_star, hit)
        grants = io_share.max_min_waterfill(
            demands, self.total.remote_io_mbps
        )
        leftover = self.total.remote_io_mbps - sum(grants.values())
        if leftover > 1e-9 and running:
            bonus = leftover / len(running)
            for job in running:
                grants[job.job_id] = grants.get(job.job_id, 0.0) + bonus
        self._decision.io_grants = grants
        if self._tracer.enabled:
            # Re-emit io_throttle with the *measured* hit ratios: these
            # events supersede the cache system's model-based ones for
            # this round (the report keeps the last per (time, job)).
            for job in running:
                f_star, hit = profile[job.job_id]
                self._tracer.io_throttle(
                    self.clock_s,
                    job.job_id,
                    desired_mbps=f_star,
                    hit_ratio=hit,
                    demand_mbps=demands[job.job_id],
                    grant_mbps=grants.get(job.job_id, 0.0),
                )
        for rt in self._active.values():
            rt.hits_recent = 0
            rt.accesses_recent = 0

    def _apply_uniform_targets(self, running: Sequence[Job]) -> None:
        targets = self._decision.cache_targets
        for key, target_mb in targets.items():
            capacity = int(target_mb / self._item_size_mb)
            cache = self._uniform_caches.get(key)
            if cache is None:
                # zlib.crc32 is stable across processes, unlike builtin
                # hash() on str, so per-key eviction streams reproduce.
                key_digest = zlib.crc32(key.encode("utf-8")) % 9973
                cache = UniformItemCache(
                    capacity, rng=random.Random(self._seed + key_digest)
                )
                self._uniform_caches[key] = cache
            else:
                before = cache.size
                cache.resize(capacity)
                if cache.size < before:
                    # Random eviction scales effectiveness down (§6).
                    ratio = cache.size / before if before else 0.0
                    for rt in self._active.values():
                        if self.cache_system.cache_key(rt.job) == key:
                            rt.effective_items = int(
                                rt.effective_items * ratio
                            )
                    if self._tracer.enabled:
                        self._tracer.cache_evict(
                            self.clock_s,
                            key,
                            delta_mb=(before - cache.size)
                            * self._item_size_mb,
                            resident_mb=cache.size * self._item_size_mb,
                            reason="target_shrink",
                        )
        # Keys with no target are shrunk to zero only if the pool
        # oversubscribes (uniform caching never evicts eagerly).
        total_items = sum(c.size for c in self._uniform_caches.values())
        pool_items = int(self.total.cache_mb / self._item_size_mb)
        if total_items > pool_items:
            for key in list(self._uniform_caches):
                if key not in targets:
                    freed = self._uniform_caches[key].size
                    self._uniform_caches[key].resize(0)
                    total_items -= freed
                    if freed and self._tracer.enabled:
                        self._tracer.cache_evict(
                            self.clock_s,
                            key,
                            delta_mb=freed * self._item_size_mb,
                            resident_mb=0.0,
                            reason="reclaim",
                        )
                    if total_items <= pool_items:
                        break

    def _admit_prefetched_items(self) -> None:
        """Fetch random uncached items of prefetch-targeted datasets."""
        if not self._decision.prefetch_rates:
            return
        epoch_items_by_key = {}
        for rt in self._active.values():
            epoch_items_by_key[self.cache_system.cache_key(rt.job)] = (
                rt.epoch_items
            )
        rng = random.Random(self._seed * 7919 + int(self.clock_s))
        for key, rate in self._decision.prefetch_rates.items():
            cache = self._uniform_caches.get(key)
            population = epoch_items_by_key.get(key)
            if cache is None or not population or rate <= 0:
                continue
            budget_items = int(rate * self._interval_s / self._item_size_mb)
            before = cache.size
            for _ in range(budget_items):
                if cache.size >= cache.capacity:
                    break
                cache.access((key, rng.randrange(population)))
            if self._tracer.enabled and cache.size > before:
                self._tracer.cache_admit(
                    self.clock_s,
                    key,
                    delta_mb=(cache.size - before) * self._item_size_mb,
                    resident_mb=cache.size * self._item_size_mb,
                    via="prefetch",
                )

    # ------------------------------------------------------------------
    # The per-interval pipeline.
    # ------------------------------------------------------------------

    def _run_interval(self, t_end: float) -> None:
        tracer = self._tracer
        lru_before = self._lru_pool.size
        if tracer.enabled:
            self._admits_interval = {}
        for rt in self._active.values():
            job = rt.job
            gpus = self._allocation.gpus_of(job.job_id)
            if gpus <= 0 or rt.done:
                rt.ran_last_interval = False
                continue
            f_star = self.scheduler.estimator.compute_bound(job, gpus)
            if f_star <= 0:
                continue
            step_time = self._item_size_mb / f_star
            io_rate = self._decision.io_grants.get(job.job_id, 0.0)
            fetch_time = (
                self._item_size_mb / io_rate if io_rate > 0 else math.inf
            )
            local_time = self._item_size_mb / self._local_read_mbps
            if not rt.ran_last_interval:
                # Re-base after idle/preemption; while running, the
                # pipeline clocks carry over so no lead time is lost.
                rt.io_free_t = max(rt.io_free_t, self.clock_s)
                rt.comp_free_t = max(rt.comp_free_t, self.clock_s)
            self._run_job_pipeline(
                rt, t_end, step_time, fetch_time, local_time
            )
            rt.ran_last_interval = True
        if tracer.enabled:
            self._flush_cache_events(t_end, lru_before)

    def _flush_cache_events(self, t_end: float, lru_before: int) -> None:
        """Emit the interval's aggregated cache_admit/evict events.

        Item-level churn is aggregated to one ``cache_admit`` per key
        per interval; for the shared LRU pool, evictions are derived
        from the pool's size delta and emitted against the pool-wide
        ``lru_pool`` key (per-key victims are not attributable).
        """
        inserted = 0
        for key in sorted(self._admits_interval):
            items = self._admits_interval[key]
            if items <= 0:
                continue
            inserted += items
            if self._is_lru:
                resident = self._lru_pool.size * self._item_size_mb
            else:
                cache = self._uniform_caches.get(key)
                resident = (cache.size if cache else 0) * self._item_size_mb
            self._tracer.cache_admit(
                t_end,
                key,
                delta_mb=items * self._item_size_mb,
                resident_mb=resident,
                via="miss",
            )
        self._admits_interval = {}
        if self._is_lru:
            evicted = inserted + lru_before - self._lru_pool.size
            if evicted > 0:
                self._tracer.cache_evict(
                    t_end,
                    _LRU_POOL_KEY,
                    delta_mb=evicted * self._item_size_mb,
                    resident_mb=self._lru_pool.size * self._item_size_mb,
                    reason="lru",
                )

    def _run_job_pipeline(
        self,
        rt: _JobRuntime,
        t_end: float,
        step_time: float,
        fetch_time: float,
        local_time: float,
    ) -> None:
        """Advance one job item by item until ``t_end`` or completion.

        The hot loop of the emulator: its state lives in locals and is
        written back to ``rt`` once at the end. Cache lookups still go
        through ``item in cache`` and the pool's ``access`` so that
        wrappers on those methods see every item.
        """
        key = self.cache_system.cache_key(rt.job)
        tracer = self._tracer
        tracing = tracer.enabled
        item_size = self._item_size_mb
        admits = self._admits_interval
        pool = self._lru_pool if self._is_lru else None
        if pool is not None:
            pool_access = pool.access
            cache = None
        else:
            cache = self._uniform_caches.get(key)
            target_items = int(
                self._decision.cache_targets.get(key, 0.0) / item_size
            )
        # No remote bandwidth: the first miss stalls the job until t_end.
        stall_on_miss = math.isinf(fetch_time)
        order = rt.order
        epoch_items = rt.epoch_items
        epoch_pos = rt.epoch_pos
        items_done = rt.items_done
        total_items = rt.total_items
        io_free = rt.io_free_t
        comp_free = rt.comp_free_t
        history = rt.comp_finish_history
        depth = rt.prefetch_depth
        consumed = rt.bytes_consumed_interval
        fetched = rt.bytes_fetched_interval
        hits = 0
        steps = 0
        while comp_free < t_end and items_done < total_items:
            steps += 1
            item = (key, order[epoch_pos])
            if pool is not None:
                hit = pool_access(item)
                if tracing and not hit and pool.capacity > 0:
                    admits[key] = admits.get(key, 0) + 1
            elif cache is None:
                hit = False
            else:
                hit = item in cache
                if not hit and cache.size < target_items:
                    cache.access(item)  # admit under target
                    if tracing:
                        admits[key] = admits.get(key, 0) + 1
            if hit:
                hits += 1
                io_time = local_time
            elif stall_on_miss:
                comp_free = t_end
                break
            else:
                io_time = fetch_time
                fetched += item_size
            # Bounded prefetch: the loader may run at most
            # ``prefetch_depth`` items ahead of compute. The conditionals
            # break ties the way ``max()`` does (first argument wins).
            gate = history[0] if len(history) == depth else 0.0
            if gate > io_free:
                io_free = gate
            io_free += io_time
            if io_free > comp_free:
                comp_free = io_free + step_time
            else:
                comp_free += step_time
            history.append(comp_free)
            consumed += item_size
            items_done += 1
            epoch_pos += 1
            if epoch_pos >= epoch_items:
                epoch_pos = 0
                rt.epochs_done += 1
                _shuffle(rt.rng, order)
                # Delayed effectiveness: everything resident *now* becomes
                # usable from the next epoch on.
                rt.effective_items = self._cache_items_of(key)
                if tracing and items_done < total_items:
                    # The final epoch's boundary coincides with completion
                    # and is not emitted — matching the fluid simulator.
                    tracer.epoch_boundary(
                        comp_free, rt.job.job_id, epoch=rt.epochs_done
                    )
                    tracer.promote_effective(
                        comp_free,
                        rt.job.job_id,
                        key=key,
                        effective_mb=rt.effective_items * item_size,
                        reason="epoch_boundary",
                    )
        rt.epoch_pos = epoch_pos
        rt.items_done = items_done
        rt.io_free_t = io_free
        rt.comp_free_t = comp_free
        rt.bytes_consumed_interval = consumed
        rt.bytes_fetched_interval = fetched
        rt.hits_recent += hits
        rt.accesses_recent += steps
        if items_done >= total_items:
            rt.finish_time_s = comp_free
        self.loop_events += steps

    # ------------------------------------------------------------------
    # Sampling and results.
    # ------------------------------------------------------------------

    def _sample(self) -> None:
        interval = max(self.clock_s - self._last_sample_s, self._interval_s)
        self._last_sample_s = self.clock_s
        running_jobs = []
        throughputs: Dict[str, float] = {}
        io_used = 0.0
        achieved = 0.0
        ideal = 0.0
        for rt in self._active.values():
            gpus = self._allocation.gpus_of(rt.job.job_id)
            if gpus <= 0:
                continue
            running_jobs.append(rt.job)
            rate = rt.bytes_consumed_interval / interval
            throughputs[rt.job.job_id] = rate
            achieved += rate
            io_used += rt.bytes_fetched_interval / interval
            ideal += self.scheduler.estimator.compute_bound(rt.job, gpus)
            rt.bytes_consumed_interval = 0.0
            rt.bytes_fetched_interval = 0.0
        mature = [
            job
            for job in running_jobs
            if self._active[job.job_id].epochs_done > 0
        ]
        fairness = fairness_ratio(
            mature,
            throughputs,
            self.total,
            self.scheduler.estimator,
            storage_aware=True,
            num_jobs=len(running_jobs),
        )
        if self._is_lru:
            resident = self._lru_pool.size * self._item_size_mb
        else:
            resident = (
                sum(c.size for c in self._uniform_caches.values())
                * self._item_size_mb
            )
        effective = sum(
            rt.effective_items * self._item_size_mb
            for rt in self._active.values()
        )
        self._timeline.append(
            TimelineSample(
                time_s=self.clock_s,
                running_jobs=len(running_jobs),
                queued_jobs=len(self._active) - len(running_jobs),
                total_throughput_mbps=achieved,
                ideal_throughput_mbps=ideal,
                remote_io_used_mbps=io_used,
                fairness_ratio=fairness,
                resident_cache_mb=resident,
                effective_cache_mb=min(effective, resident),
            )
        )

    def _result(self) -> RunResult:
        records = []
        everything = self._finished + list(self._active.values())
        for rt in sorted(everything, key=lambda r: r.job.submit_time_s):
            records.append(
                JobRecord(
                    job_id=rt.job.job_id,
                    model=rt.job.model,
                    dataset=rt.job.dataset.name,
                    num_gpus=rt.job.num_gpus,
                    submit_time_s=rt.job.submit_time_s,
                    start_time_s=rt.start_time_s,
                    finish_time_s=rt.finish_time_s,
                )
            )
        return RunResult(
            scheduler_name=self.scheduler.policy.name,
            cache_name=self.cache_system.name,
            records=records,
            timeline=self._timeline,
            end_time_s=self.clock_s,
        )
