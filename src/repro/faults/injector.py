"""The fault-injection engine shared by both simulators.

:class:`FaultInjector` owns a :class:`~repro.faults.spec.FaultSchedule`
and the churn *state* it induces — how many servers are down, how much
cache-pool capacity is lost, the current bandwidth factor — and turns
each due :class:`~repro.faults.spec.FaultEvent` into a
:class:`FaultEffect` the simulators interpret:

* capacity changes are read back through :meth:`effective_total`, which
  scales a base :class:`~repro.core.resources.ResourceVector` by the
  current churn state;
* ``evict_fraction`` tells the simulator what share of every cache key's
  resident bytes lived on the lost node (even striping) and must be
  invalidated;
* ``preempt_gpus`` tells it how many GPUs' worth of running jobs were on
  the crashed servers; :meth:`select_victims` picks the concrete jobs
  deterministically (sorted job id, greedy fill), so both simulators
  preempt the same jobs for the same schedule;
* ``reset_cache_system`` tells it the data manager restarted: the cache
  system's in-memory state is gone (allocations and the on-disk cache
  content survive, §6).

The injector also emits the schedule-driven half of the fault event
schema (``fault_inject`` plus ``node_down``/``node_up``); the simulators
emit the state-dependent half (``cache_invalidate``, ``job_preempt``,
``job_restart``) as they apply the effects. Recovery semantics: a
recovered server returns with a **cold** disk (its shards were
invalidated at crash time) and recovered cache capacity is likewise
empty — refills pay the §6 delayed-effectiveness cost again.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Dict, List, Optional

from repro.cluster.hardware import Cluster
from repro.core.resources import ResourceVector
from repro.faults.spec import FaultEvent, FaultSchedule
from repro.obs import events as ev
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclasses.dataclass
class FaultEffect:
    """What one applied fault event asks the simulator to do."""

    event: FaultEvent
    #: Fraction of every cache key's resident bytes to invalidate.
    evict_fraction: float = 0.0
    #: GPUs' worth of running jobs to preempt (epoch-granularity restart).
    preempt_gpus: float = 0.0
    #: Target of ``job_preempt``/``job_restart``.
    job_id: Optional[str] = None
    #: ``data_manager_restart``: drop the cache system's in-memory state.
    reset_cache_system: bool = False


class FaultInjector:
    """Drive one simulation through a fault schedule.

    Parameters
    ----------
    schedule:
        The (non-empty) fault schedule; events are consumed in time
        order via :meth:`pop_due`.
    cluster:
        The simulated cluster — provides the per-server GPU and cache
        shares a ``server_crash`` removes, and the base capacities the
        churn state is measured against.
    tracer:
        Structured-event sink; the injector emits one ``fault_inject``
        per applied event plus ``node_down``/``node_up`` for capacity
        changes. Defaults to the free no-op tracer.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        cluster: Cluster,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self._pending = deque(schedule)
        self._tracer = tracer
        self._num_servers = max(1, len(cluster.servers))
        self._gpus_per_server = cluster.total_gpus / self._num_servers
        self._cache_per_server_mb = (
            cluster.total_cache_mb / self._num_servers
        )
        self._base_cache_mb = cluster.total_cache_mb
        #: Churn state.
        self.servers_down = 0
        self.cache_lost_mb = 0.0
        self.bandwidth_factor = 1.0

    # ------------------------------------------------------------------
    # Event-loop interface.
    # ------------------------------------------------------------------

    def next_time(self) -> Optional[float]:
        """Time of the next pending fault, or ``None`` when exhausted."""
        return self._pending[0].time_s if self._pending else None

    def pop_due(self, now_s: float) -> List[FaultEvent]:
        """Remove and return every pending fault due at or before now
        (within 1 ns of virtual time)."""
        due: List[FaultEvent] = []
        while self._pending and self._pending[0].time_s <= now_s + 1e-9:
            due.append(self._pending.popleft())
        return due

    # ------------------------------------------------------------------
    # Churn state.
    # ------------------------------------------------------------------

    def current_cache_mb(self) -> float:
        """Cache-pool capacity under the current churn state."""
        return max(
            0.0,
            self._base_cache_mb
            - self.servers_down * self._cache_per_server_mb
            - self.cache_lost_mb,
        )

    def effective_total(self, base: ResourceVector) -> ResourceVector:
        """``base`` scaled by the current churn state.

        GPU and cache losses are absolute (servers hold fixed shares of
        both); bandwidth degradation is multiplicative on the base
        egress limit.
        """
        return ResourceVector(
            gpus=max(
                0.0, base.gpus - self.servers_down * self._gpus_per_server
            ),
            cache_mb=max(
                0.0,
                base.cache_mb
                - self.servers_down * self._cache_per_server_mb
                - self.cache_lost_mb,
            ),
            remote_io_mbps=base.remote_io_mbps * self.bandwidth_factor,
        )

    # ------------------------------------------------------------------
    # Applying faults.
    # ------------------------------------------------------------------

    def apply(self, event: FaultEvent, now_s: float) -> FaultEffect:
        """Update churn state for one event; return the simulator's TODO.

        ``now_s`` is the simulation time the effect takes hold (the
        event's own time in the fluid simulator; the enclosing batch
        boundary in the minibatch emulator) and is the timestamp of the
        emitted events.
        """
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                now_s,
                ev.FAULT_INJECT,
                kind=event.kind,
                target=event.target or "",
                magnitude=event.magnitude,
            )
        effect = FaultEffect(event=event)
        if event.kind == "server_crash":
            n = min(int(event.magnitude), self._num_servers - self.servers_down)
            if n <= 0:
                return effect
            capacity_before = self.current_cache_mb()
            self.servers_down += n
            lost_cache = n * self._cache_per_server_mb
            effect.preempt_gpus = n * self._gpus_per_server
            if capacity_before > 0:
                effect.evict_fraction = min(
                    1.0, lost_cache / capacity_before
                )
            if tracer.enabled:
                tracer.emit(
                    now_s,
                    ev.NODE_DOWN,
                    kind="server",
                    gpus_lost=n * self._gpus_per_server,
                    cache_lost_mb=lost_cache,
                )
        elif event.kind == "server_recover":
            n = min(int(event.magnitude), self.servers_down)
            if n <= 0:
                return effect
            self.servers_down -= n
            if tracer.enabled:
                tracer.emit(
                    now_s,
                    ev.NODE_UP,
                    kind="server",
                    gpus_restored=n * self._gpus_per_server,
                    cache_restored_mb=n * self._cache_per_server_mb,
                )
        elif event.kind == "cache_loss":
            capacity_before = self.current_cache_mb()
            lost = min(event.magnitude, capacity_before)
            if lost <= 0:
                return effect
            self.cache_lost_mb += lost
            effect.evict_fraction = min(1.0, lost / capacity_before)
            if tracer.enabled:
                tracer.emit(
                    now_s,
                    ev.NODE_DOWN,
                    kind="cache",
                    gpus_lost=0.0,
                    cache_lost_mb=lost,
                )
        elif event.kind == "cache_recover":
            restored = min(event.magnitude, self.cache_lost_mb)
            if restored <= 0:
                return effect
            self.cache_lost_mb -= restored
            if tracer.enabled:
                tracer.emit(
                    now_s,
                    ev.NODE_UP,
                    kind="cache",
                    gpus_restored=0.0,
                    cache_restored_mb=restored,
                )
        elif event.kind == "bandwidth":
            self.bandwidth_factor = event.magnitude
        elif event.kind in ("job_preempt", "job_restart"):
            effect.job_id = event.target
        elif event.kind == "data_manager_restart":
            effect.reset_cache_system = True
        return effect

    @staticmethod
    def select_victims(
        running_gpus: Dict[str, float], gpus_lost: float
    ) -> List[str]:
        """Pick the running jobs that lived on the crashed servers.

        Neither simulator models physical placement, so victims are
        chosen by a deterministic proxy both agree on: running jobs in
        sorted-id order, greedily, until their GPU grants cover the lost
        capacity. At least one victim is chosen whenever any job runs —
        a crashed server always takes someone's pod with it.
        """
        victims: List[str] = []
        covered = 0.0
        for job_id in sorted(running_gpus):
            if covered >= gpus_lost - 1e-9:
                break
            if running_gpus[job_id] <= 0:
                continue
            victims.append(job_id)
            covered += running_gpus[job_id]
        return victims
