"""The online run path's components: admission, scheduler, cache.

The batch runner couples policy, estimator, and cache into a single
``(scheduler, cache_system)`` pair. The service keeps that pair and puts
a bounded :class:`AdmissionQueue` in front of it — reject-with-reason
backpressure (``queue_full``, ``duplicate_id``, ``shutting_down``) —
in the spirit of Blox's (Agarwal et al.) decomposed scheduler services.

:meth:`ServiceStack.build` constructs the three from registry names with
the paper's coupling rule (``silod`` cache ⇒ storage-aware policy), so
``serve --policy X --cache Y`` accepts exactly what the batch CLI does.
The stack's scheduler/cache objects are *the* objects the simulator
runs, and :meth:`ServiceStack.describe` reports them per component for
``status`` responses (admission, estimator, placement, cache
allocation).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.base import CacheSystem
from repro.core.silod import SiloDScheduler
from repro.serve.protocol import (
    REJECT_DUPLICATE,
    REJECT_QUEUE_FULL,
    REJECT_SHUTTING_DOWN,
)
from repro.sim.runner import make_system


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


class ServiceStack:
    """The admission queue, scheduler and cache system of one service."""

    def __init__(
        self,
        policy: str,
        cache: str,
        admission: AdmissionQueue,
        scheduler: SiloDScheduler,
        cache_system: CacheSystem,
    ) -> None:
        self.policy = policy
        self.cache = cache
        self.admission = admission
        self.scheduler = scheduler
        self.cache_system = cache_system

    @classmethod
    def build(
        cls,
        policy: str,
        cache: str,
        queue_limit: int = 64,
        cache_kwargs: Optional[dict] = None,
    ) -> "ServiceStack":
        """Build the stack from registry names with the coupling rule."""
        scheduler, cache_system = make_system(policy, cache, cache_kwargs)
        return cls(
            policy=policy,
            cache=cache,
            admission=AdmissionQueue(limit=queue_limit),
            scheduler=scheduler,
            cache_system=cache_system,
        )

    def describe(self) -> dict:
        """Component-by-component identity for ``status`` responses."""
        scheduler = self.scheduler
        return {
            "admission": {
                "limit": self.admission.limit,
                "depth": self.admission.depth,
                "accepted_total": self.admission.accepted_total,
                "rejected_total": self.admission.rejected_total,
                "draining": self.admission.draining,
            },
            "estimator": {"kind": type(scheduler.estimator).__name__},
            "placement": {
                "policy": scheduler.policy.name,
                "storage_aware": scheduler.storage_aware,
                "heterogeneity_aware": bool(
                    getattr(scheduler.policy, "heterogeneity_aware", False)
                ),
                "default_generation": scheduler.default_generation,
                "gpu_pools": (
                    dict(scheduler.gpu_pools) if scheduler.gpu_pools else None
                ),
            },
            "cache_alloc": {
                "cache": self.cache,
                "kind": type(self.cache_system).__name__,
            },
        }
