"""Minibatch-granularity testbed emulator.

The paper evaluates on real clusters by replacing GPU compute with
``sleep()`` of a profiled per-batch duration ("GPU acceleration", §7) —
the IO path stays real. This module is the same idea one level down: it
emulates, per job, the two-stage pipeline of Figure 5 —

    [data load: cache hit (local disk) | miss (throttled remote fetch)]
      -> [compute: profiled step duration]

over **item-granularity caches** (`repro.cache.items`) with real admission
and eviction, per-epoch reshuffled access orders, and bounded prefetching
(:data:`PREFETCH_DEPTH` items ahead of compute; hits read at
:data:`LOCAL_READ_MBPS`).
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
from array import array
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.alluxio import AlluxioCache
from repro.cache.base import (
    CacheSystem,
    StorageContext,
    StorageDecision,
    fair_share_io,
    trace_io_grants,
)
from repro.cache.items import LruItemCache, UniformItemCache
from repro.cache.silod_cache import SiloDDataManager
from repro.cluster.hardware import LOCAL_READ_MBPS, Cluster
from repro.cluster.job import Job
from repro.core.silod import SiloDScheduler
from repro.faults.spec import ScheduleLike
from repro.obs import events as ev
from repro.obs.tracer import Tracer
from repro.sim.kernel import SimulatorKernel

#: Cache key used for the shared LRU pool in cache events (the pool is
#: one arena shared by every dataset, unlike the per-key uniform caches).
_LRU_POOL_KEY = "lru_pool"

#: How many items a job's loader may run ahead of its compute.
PREFETCH_DEPTH = 16


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

    def __init__(self, job: Job, item_size_mb: float, seed: int) -> None:
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
        # The generator feeds nothing but this job's shuffles, so the
        # epoch order can wait for the first placement and be dropped at
        # release (see ``MinibatchEmulator._start_job``/``_release``).
        self.rng = random.Random(seed)
        self.order: Optional[array] = None
        self.io_free_t = 0.0
        self.comp_free_t = 0.0
        # Measured hit statistics feeding the work-conserving bandwidth
        # division used by scheduler-oblivious cache systems.
        self.hits_recent = 0
        self.accesses_recent = 0
        self.comp_finish_history: deque = deque(maxlen=PREFETCH_DEPTH)
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

    @property
    def work_done_mb(self) -> float:
        """Training data consumed so far."""
        return self.items_done * self.item_size_mb

    @property
    def epoch_index(self) -> int:
        """Completed epochs (the epoch number lifecycle events report)."""
        return self.epochs_done


class MinibatchEmulator(SimulatorKernel):
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

    _retire_at_finish = True

    def __init__(
        self,
        cluster: Cluster,
        scheduler: SiloDScheduler,
        cache_system: CacheSystem,
        jobs: Sequence[Job],
        item_size_mb: float = 64.0,
        decision_interval_s: float = 60.0,
        sample_interval_s: float = 600.0,
        seed: int = 0,
        max_time_s: Optional[float] = None,
        faults: ScheduleLike = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(
            cluster, scheduler, cache_system, jobs,
            sample_interval_s, max_time_s, faults, tracer,
        )
        #: Items admitted per cache key within the current interval
        #: (flushed to aggregated ``cache_admit`` events).
        self._admits_interval: Dict[str, int] = {}
        self._item_size_mb = item_size_mb
        self._interval_s = decision_interval_s
        self._seed = seed
        self._is_lru = isinstance(cache_system, AlluxioCache)
        self._uniform_caches: Dict[str, UniformItemCache] = {}
        self._lru_pool = LruItemCache(
            int(cluster.total_cache_mb / item_size_mb)
        )
        self._last_sample_s = 0.0

    # ------------------------------------------------------------------
    # The stepped protocol: one step is one decision interval (the
    # emulator's native granularity), not one event.
    # ------------------------------------------------------------------

    def next_event_time(self) -> Optional[float]:
        """Virtual time the next decision interval starts (``None`` = never)."""
        if self._done():
            return None
        if self._max_time_s is not None and self.clock_s >= self._max_time_s:
            return None
        if not self._active:
            return self._next_arrival_time()
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
        if not self._active:
            self.clock_s = t_start  # idle: jump to the next arrival
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

    # ------------------------------------------------------------------
    # Lifecycle hooks (see ``repro.sim.kernel``).
    # ------------------------------------------------------------------

    def _new_state(self, job: Job) -> _JobRuntime:
        # The shuffle seed hangs off the admission index.
        return _JobRuntime(
            job,
            self._item_size_mb,
            seed=self._seed * 1_000_003 + self._arrival_idx,
        )

    def _release(self, rt: _JobRuntime) -> None:
        rt.order = None
        if self.cache_system.per_job_keys:
            self._uniform_caches.pop(rt.job.job_id, None)

    def _start_job(self, rt: _JobRuntime) -> Tuple[str, float]:
        # The first epoch's order, stored at four bytes a position.
        order = list(range(rt.epoch_items))
        _shuffle(rt.rng, order)
        rt.order = array("I", order)
        key = self.cache_system.cache_key(rt.job)
        rt.effective_items = self._cache_items_of(key)
        return key, rt.effective_items * self._item_size_mb

    def _after_faults(self) -> None:
        if self._is_lru:
            # The shared pool tracks the (possibly shrunk) capacity; LRU
            # eviction handles any overflow.
            self._lru_pool.resize(
                int(self.total.cache_mb / self._item_size_mb)
            )

    # ------------------------------------------------------------------
    # Faults: applied at the first interval boundary at or after their
    # scheduled time (batch granularity).
    # ------------------------------------------------------------------

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
            caches = [(_LRU_POOL_KEY, self._lru_pool)]
        else:
            caches = sorted(self._uniform_caches.items())
        for key, cache in caches:
            before = cache.size
            keep = int(before * keep_ratio)
            if before <= 0 or keep >= before:
                continue
            cap = cache.capacity
            cache.resize(keep)
            cache.resize(cap)
            if tracer.enabled:
                tracer.emit(
                    self.clock_s,
                    ev.CACHE_INVALIDATE,
                    key=key,
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
            self._tracer.emit(
                self.clock_s,
                ev.JOB_PREEMPT,
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

    def _effective_map(self) -> Dict[str, float]:
        """A fresh job_id → effective-bytes map of the active jobs."""
        item_size = self._item_size_mb
        return {
            job_id: rt.effective_items * item_size
            for job_id, rt in self._active.items()
        }

    def _apply_decision(
        self, ctx: StorageContext, decision: StorageDecision
    ) -> None:
        self._decision = decision
        if not isinstance(self.cache_system, SiloDDataManager):
            self._work_conserving_io_grants(ctx)
        if not self._is_lru:
            self._apply_uniform_targets()
            self._admit_prefetched_items()

    def _work_conserving_io_grants(self, ctx: StorageContext) -> None:
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
        running = ctx.running_jobs
        hits = {}
        for job in running:
            rt = self._active.get(job.job_id)
            if rt is not None and rt.accesses_recent >= 20:
                hits[job.job_id] = rt.hits_recent / rt.accesses_recent
            else:
                hits[job.job_id] = self._decision.hit_ratios.get(
                    job.job_id, 0.0
                )
        grants = fair_share_io(ctx, hits)
        leftover = ctx.total_io_mbps - sum(grants.values())
        if leftover > 1e-9 and running:
            bonus = leftover / len(running)
            for job in running:
                grants[job.job_id] = grants.get(job.job_id, 0.0) + bonus
        self._decision.io_grants = grants
        # Re-emit io_throttle with the *measured* hit ratios: these
        # events supersede the cache system's model-based ones for this
        # round (the report keeps the last per (time, job)).
        trace_io_grants(ctx, hits, grants)
        for rt in self._active.values():
            rt.hits_recent = 0
            rt.accesses_recent = 0

    def _apply_uniform_targets(self) -> None:
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
                        self._tracer.emit(
                            self.clock_s,
                            ev.CACHE_EVICT,
                            key=key,
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
                        self._tracer.emit(
                            self.clock_s,
                            ev.CACHE_EVICT,
                            key=key,
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
                cache.access(rng.randrange(population))
            if self._tracer.enabled and cache.size > before:
                self._tracer.emit(
                    self.clock_s,
                    ev.CACHE_ADMIT,
                    key=key,
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
        view = self._round_view()
        for job in view.queued:
            self._active[job.job_id].ran_last_interval = False
        for job, f_star in zip(view.running, view.f_stars):
            rt = self._active[job.job_id]
            if rt.done:
                rt.ran_last_interval = False
                continue
            if f_star <= 0:
                continue
            step_time = self._item_size_mb / f_star
            io_rate = self._decision.io_grants.get(job.job_id, 0.0)
            fetch_time = (
                self._item_size_mb / io_rate if io_rate > 0 else math.inf
            )
            local_time = self._item_size_mb / LOCAL_READ_MBPS
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
            self._tracer.emit(
                t_end,
                ev.CACHE_ADMIT,
                key=key,
                delta_mb=items * self._item_size_mb,
                resident_mb=resident,
                via="miss",
            )
        self._admits_interval = {}
        if self._is_lru:
            evicted = inserted + lru_before - self._lru_pool.size
            if evicted > 0:
                self._tracer.emit(
                    t_end,
                    ev.CACHE_EVICT,
                    key=_LRU_POOL_KEY,
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
        wrappers on those methods see every item. A per-key uniform
        cache holds bare item indices; the shared LRU pool holds
        ``(key, index)``, because every key shares its arena.
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
        depth = PREFETCH_DEPTH
        consumed = rt.bytes_consumed_interval
        fetched = rt.bytes_fetched_interval
        hits = 0
        steps = 0
        while comp_free < t_end and items_done < total_items:
            steps += 1
            item = order[epoch_pos]
            if pool is not None:
                hit = pool_access((key, item))
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
            # ``PREFETCH_DEPTH`` items ahead of compute. The conditionals
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
                if items_done < total_items:
                    # Shuffle through a list: Fisher-Yates on the array
                    # itself is slower per position. The job's last item
                    # needs no next order.
                    shuffled = order.tolist()
                    _shuffle(rt.rng, shuffled)
                    order = rt.order = array("I", shuffled)
                # Delayed effectiveness: everything resident *now* becomes
                # usable from the next epoch on.
                rt.effective_items = self._cache_items_of(key)
                if tracing and items_done < total_items:
                    # The final epoch's boundary coincides with completion
                    # and is not emitted — matching the fluid simulator.
                    tracer.emit(
                        comp_free,
                        ev.EPOCH_BOUNDARY,
                        rt.job.job_id,
                        epoch=rt.epochs_done,
                    )
                    tracer.emit(
                        comp_free,
                        ev.PROMOTE_EFFECTIVE,
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
        view = self._round_view()
        throughputs: Dict[str, float] = {}
        io_used = 0.0
        achieved = 0.0
        ideal = 0.0
        for job_id, f_star in zip(view.job_ids, view.f_stars):
            rt = self._active[job_id]
            rate = rt.bytes_consumed_interval / interval
            throughputs[job_id] = rate
            achieved += rate
            io_used += rt.bytes_fetched_interval / interval
            ideal += f_star
            rt.bytes_consumed_interval = 0.0
            rt.bytes_fetched_interval = 0.0
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
        self._record_sample(
            view.running,
            throughputs,
            achieved=achieved,
            ideal=ideal,
            io_used=io_used,
            resident=resident,
            effective=min(effective, resident),
        )
