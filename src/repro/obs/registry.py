"""Counters and sliding windows with cluster/job scopes.

The registry complements the event log: events answer "what happened,
in what order", the registry answers "how much, in total" without
replaying anything. A :class:`~repro.obs.tracer.Tracer` owns one and is
its only writer: every metric is a function of the event stream — the
per-event-type counters and the
:data:`~repro.obs.tracer.DERIVED_METRICS` rows (bytes admitted,
throttled rounds, ...). Sliding-window histograms
(:mod:`repro.obs.windows`) ride alongside for the signals whose
*distribution* matters — decision latency, queue depth, cache hit
ratio, JCT — and surface p50/p95/p99 in the snapshot.

Scopes
------
Every metric lives in the *cluster* scope by default; passing
``job_id`` addresses the per-job scope instead. The two are
independent — incrementing a job-scoped counter does not touch the
cluster-scoped counter of the same name, so each
:data:`~repro.obs.tracer.DERIVED_METRICS` row says where it aggregates.

Snapshot stability
------------------
``snapshot()`` is diff-friendly by contract: it carries a
``schema_version`` key, and every mapping is emitted in sorted key
order (jobs sorted by id, metrics sorted by name), so two snapshots of
equal state serialise to identical JSON. Bench artifacts and serve
``metrics`` responses rely on this.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.windows import DEFAULT_CAPACITY, SlidingWindow

#: Version of the ``snapshot()`` layout. Bump on any structural change
#: (new top-level key, renamed bucket) so consumers can detect drift.
METRICS_SCHEMA_VERSION = 3


class _Scope:
    """One scope's metrics: two name-keyed dicts kept in sorted order.

    A new name marks the scope unsorted; the next snapshot re-sorts it
    once. Value updates never change the order, so most reads copy
    dicts that are already sorted.
    """

    __slots__ = ("counters", "windows", "unsorted")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.windows: Dict[str, SlidingWindow] = {}
        self.unsorted = False

    def snapshot(self) -> dict:
        if self.unsorted:
            self.counters = dict(sorted(self.counters.items()))
            self.windows = dict(sorted(self.windows.items()))
            self.unsorted = False
        out: dict = {"counters": dict(self.counters)}
        if self.windows:
            out["windows"] = {
                name: window.snapshot()
                for name, window in self.windows.items()
            }
        return out


class MetricsRegistry:
    """In-memory counters (monotonic) and sliding windows."""

    def __init__(self) -> None:
        self._cluster = _Scope()
        #: Per-job scopes; re-sorted by id when a new id has arrived.
        self._jobs: Dict[str, _Scope] = {}
        self._jobs_unsorted = False

    def _scope(self, job_id: Optional[str]) -> _Scope:
        """The scope a write addresses, created on first use."""
        if job_id is None:
            return self._cluster
        scope = self._jobs.get(job_id)
        if scope is None:
            scope = self._jobs[job_id] = _Scope()
            self._jobs_unsorted = True
        return scope

    def _sorted_jobs(self) -> Dict[str, _Scope]:
        if self._jobs_unsorted:
            self._jobs = dict(sorted(self._jobs.items()))
            self._jobs_unsorted = False
        return self._jobs

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------

    def inc(
        self, name: str, value: float = 1.0, job_id: Optional[str] = None
    ) -> float:
        """Add ``value`` to a counter; returns the new total."""
        scope = self._scope(job_id)
        counters = scope.counters
        if name in counters:
            total = counters[name] + value
        else:
            total = 0.0 + value
            scope.unsorted = True
        counters[name] = total
        return total

    def observe(
        self,
        name: str,
        value: float,
        job_id: Optional[str] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        """Add one sample to a sliding window (created on first use).

        The window's percentiles are deterministic functions of the
        observed value sequence (see :mod:`repro.obs.windows`).
        """
        window = self.window(name, job_id)
        if window is not None:
            window.observe(value)
            return
        window = SlidingWindow(capacity=capacity)
        # A rejected first sample (NaN) leaves the registry untouched.
        window.observe(value)
        scope = self._scope(job_id)
        scope.windows[name] = window
        scope.unsorted = True

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------

    def _existing(self, job_id: Optional[str]) -> Optional[_Scope]:
        return self._cluster if job_id is None else self._jobs.get(job_id)

    def counter(self, name: str, job_id: Optional[str] = None) -> float:
        """Current value of a counter (0.0 if never incremented)."""
        scope = self._existing(job_id)
        return scope.counters.get(name, 0.0) if scope is not None else 0.0

    def window(
        self, name: str, job_id: Optional[str] = None
    ) -> Optional[SlidingWindow]:
        """The live window of ``name``, or ``None`` if never observed."""
        scope = self._existing(job_id)
        return scope.windows.get(name) if scope is not None else None

    def job_ids(self) -> list:
        """Every job id that owns at least one metric, sorted."""
        return list(self._sorted_jobs())

    def snapshot(self) -> dict:
        """A nested, JSON-safe dump: cluster scope plus one per job.

        Key order is stable (see module docstring): metric names are
        sorted within each bucket and jobs are sorted by id, so equal
        registries serialise identically. A read copies each scope's
        dicts; it sorts only the scopes (and the job list) that gained
        a name since the last snapshot.
        """
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "cluster": self._cluster.snapshot(),
            "jobs": {
                job_id: scope.snapshot()
                for job_id, scope in self._sorted_jobs().items()
            },
        }

    def clear(self) -> None:
        """Drop every metric (used between simulation runs)."""
        self._cluster = _Scope()
        self._jobs = {}
        self._jobs_unsorted = False
