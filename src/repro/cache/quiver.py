"""Quiver baseline: benefit-to-cost whole-dataset caching (§7).

Quiver is a distributed cache designed for DL training. Its policy ranks
datasets by the ratio of *benefit* (data-loading latency reduction,
profiled online) to *cost* (cache consumption) and caches datasets in rank
order — but **only entire datasets**: "jobs do not benefit from Quiver if
[the dataset] cannot entirely fit into the cache", so a dataset that does
not fit in the remaining space is skipped and the space may go unused
(the micro-benchmark's wasted 0.7 TB).

Two behaviours the paper observed are modelled explicitly:

* **Online profiling noise** — benefit estimates come from latency
  measurements taken while remote IO fluctuates, so the ranking is
  re-drawn with multiplicative log-normal noise every profiling interval
  (:data:`PROFILE_INTERVAL_S`). An incumbent keeps its slot unless a
  challenger beats it by :data:`HYSTERESIS`; a ranking flip evicts a
  fully cached dataset, which then "had to rebuild the cache with one
  more epoch" (§7.1.2).
* **Scheduler-obliviousness** — Figure 4: with two identical-efficiency
  jobs and cache for ~one dataset, Quiver gives everything to one job
  regardless of the cluster's fairness objective.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import units
from repro.cache.base import (
    CacheSystem,
    StorageContext,
    StorageDecision,
    fair_share_io,
    trace_io_grants,
)

#: How often online profiling refreshes the benefit estimates.
PROFILE_INTERVAL_S = units.SECONDS_PER_HOUR
#: An incumbent dataset's benefit is scaled by this factor when ranked
#: against challengers.
HYSTERESIS = 1.5


class QuiverCache(CacheSystem):
    """Whole-dataset, benefit-to-cost ranked caching.

    Parameters
    ----------
    profile_noise:
        Standard deviation of the log-normal noise on profiled benefits
        (0 disables noise and the ranking becomes stable).
    seed:
        RNG seed for the profiling noise.
    """

    name = "quiver"

    def __init__(
        self,
        profile_noise: float = 0.15,
        seed: int = 17,
    ) -> None:
        if profile_noise < 0:
            raise ValueError("profile noise must be non-negative")
        self._profile_noise = profile_noise
        self._seed = seed
        # numpy loads here, not at module import: a service that never
        # builds Quiver never pays for it.
        import numpy as np

        self._rng = np.random.default_rng(seed)
        self._last_profile_s: float = float("-inf")
        self._noisy_benefit: Dict[str, float] = {}
        self._selected: set = set()

    def reset(self) -> None:
        import numpy as np

        self._rng = np.random.default_rng(self._seed)
        self._last_profile_s = float("-inf")
        self._noisy_benefit = {}
        self._selected = set()

    def _profile(self, ctx: StorageContext) -> None:
        """Refresh noisy benefit-per-byte estimates for live datasets."""
        import numpy as np

        true_benefit: Dict[str, float] = {}
        for job, rate in zip(ctx.running_jobs, ctx.f_stars):
            name = job.dataset.name
            # Benefit ~ latency reduction ~ remote IO saved when cached,
            # per byte of cache: the job's ideal rate over dataset size,
            # accumulated over sharing jobs.
            true_benefit[name] = true_benefit.get(name, 0.0) + (
                rate / job.dataset.size_mb
            )
        noisy = {}
        for name, benefit in true_benefit.items():
            factor = (
                float(np.exp(self._rng.normal(0.0, self._profile_noise)))
                if self._profile_noise > 0
                else 1.0
            )
            noisy[name] = benefit * factor
        self._noisy_benefit = noisy
        self._last_profile_s = ctx.clock_s

    def decide(self, ctx: StorageContext) -> StorageDecision:
        jobs = list(ctx.running_jobs)
        if not jobs:
            return StorageDecision({}, {}, {})
        live = {job.dataset.name for job in jobs}
        stale = ctx.clock_s - self._last_profile_s >= PROFILE_INTERVAL_S
        if stale or not live.issubset(self._noisy_benefit):
            self._profile(ctx)

        sizes = {job.dataset.name: job.dataset.size_mb for job in jobs}
        # Incumbent datasets keep their slot unless a challenger's noisy
        # benefit beats them by the hysteresis margin; without this, ties
        # would flip on every profile and nothing would ever stay cached.
        scored = {
            name: self._noisy_benefit.get(name, 0.0)
            * (HYSTERESIS if name in self._selected else 1.0)
            for name in live
        }
        ranked: List[Tuple[str, float]] = sorted(
            scored.items(), key=lambda kv: (-kv[1], kv[0])
        )
        selected = set()
        remaining = ctx.total_cache_mb
        for name, _benefit in ranked:
            if sizes[name] <= remaining:
                # All-or-nothing: only entirely fitting datasets cached.
                selected.add(name)
                remaining -= sizes[name]
        self._selected = selected
        # Targets are authoritative: Quiver re-assigns the whole cache, so
        # a dataset losing its slot is evicted (and must later rebuild
        # over a full epoch — the instability §7.1.2 observes).
        targets: Dict[str, float] = {
            name: (sizes[name] if name in selected else 0.0)
            for name in live
        }
        hit_ratios = {
            job.job_id: min(
                1.0,
                ctx.effective_mb.get(job.job_id, 0.0) / job.dataset.size_mb,
            )
            for job in jobs
        }
        io_grants = fair_share_io(ctx, hit_ratios)
        trace_io_grants(ctx, hit_ratios, io_grants)
        return StorageDecision(
            cache_targets=targets, hit_ratios=hit_ratios, io_grants=io_grants
        )
