"""The SiloD-enhanced performance estimator (Algorithm 1, line 5).

Existing schedulers estimate job throughput from compute resources only:
``perf(j, R)``. SiloD wraps that estimator:

    SiloDPerf = lambda j, R: min(perf(j, R), IOPerf(j, R))

This module provides that wrapper as :class:`SiloDPerfEstimator`. It

* delegates the compute-bound estimate to a pluggable ``compute_estimator``
  (by default linear scaling of the job's profiled ``f*`` with the GPU
  fraction granted — what Gandiva/Gavel-style schedulers profile);
* applies the closed-form IOPerf (Eq 3) for *regular* jobs;
* falls back to the compute-only estimate for *irregular* jobs (§6 —
  those jobs live in a partitioned pool and keep their original estimator).
"""

from __future__ import annotations

import types
from typing import Callable, List, Sequence

from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.resources import ResourceVector

#: Signature of a compute-only estimator: (job, gpus granted) -> MB/s.
ComputeEstimator = Callable[[Job, float], float]


def linear_compute_estimator(job: Job, gpus: float) -> float:
    """Scale the profiled ``f*`` linearly with the granted GPU fraction.

    Jobs are profiled at their requested GPU count; granting fewer GPUs
    (time-sharing in Gavel) scales throughput proportionally, granting more
    than requested gives no benefit (the job cannot use them).
    """
    # ``min(1.0, share)`` as the builtin's own comparison, without a call.
    share = gpus / job.num_gpus
    fraction = share if share < 1.0 else 1.0
    return job.ideal_throughput_mbps * fraction


class SiloDPerfEstimator:
    """``min(perf, IOPerf)`` — the enhanced estimator of Algorithm 1.

    Parameters
    ----------
    compute_estimator:
        The original scheduler's ``perf(j, R)`` in MB/s. Defaults to
        :func:`linear_compute_estimator`.
    """

    def __init__(
        self, compute_estimator: ComputeEstimator = linear_compute_estimator
    ) -> None:
        self._compute_estimator = compute_estimator

    @property
    def compute_estimator(self) -> ComputeEstimator:
        """The wrapped compute-only estimator ``perf(j, R)``."""
        return self._compute_estimator

    def compute_bound(self, job: Job, gpus: float) -> float:
        """The original compute-only estimate ``perf(j, R)``."""
        return self._compute_estimator(job, gpus)

    def compute_bound_batch(
        self, jobs: Sequence[Job], gpus: Sequence[float]
    ) -> List[float]:
        """``[compute_bound(j, g) for j, g in zip(jobs, gpus)]``.

        The hot callers (the fluid simulator's rate recompute, the
        per-round IO-demand pass, the SiloD data manager) evaluate the
        compute bound for every running job at once through this one
        entry point.
        """
        return [
            self.compute_bound(job, grant)
            for job, grant in zip(jobs, gpus)
        ]

    def estimate(
        self,
        job: Job,
        gpus: float,
        cache_mb: float,
        remote_io_mbps: float,
    ) -> float:
        """End-to-end throughput under a joint allocation, in MB/s."""
        f_star = self.compute_bound(job, gpus)
        if not job.regular:
            # Irregular jobs keep the original estimator (§6).
            return f_star
        return perf_model.silod_perf(
            f_star, remote_io_mbps, cache_mb, job.dataset.size_mb
        )

    def estimate_vector(self, job: Job, resources: ResourceVector) -> float:
        """Convenience overload taking a :class:`ResourceVector`."""
        return self.estimate(
            job,
            gpus=resources.gpus,
            cache_mb=resources.cache_mb,
            remote_io_mbps=resources.remote_io_mbps,
        )


class HetSiloDPerfEstimator(SiloDPerfEstimator):
    """Generation-aware SiloDPerf: ``min(f*(j, gen(j)), IOPerf)``.

    Wraps the base compute estimator with a per-generation speedup
    factor (``repro.core.perf_model.default_speedup_table``): a job
    assigned to generation *g* has its compute bound scaled by
    ``speedups[g]``. Assignments live in the mutable :attr:`assignments`
    map (job_id -> generation name); unassigned jobs run at the
    ``default_generation``, whose factor is exactly 1.0 when the table
    is anchored there — so a fleet with no assignments (or a
    single-generation fleet) produces bit-identical numbers to the
    plain :class:`SiloDPerfEstimator`.

    The speedup table is fixed at construction: :attr:`speedups` is a
    read-only view, because :meth:`f_star_by_generation` iterates an
    order sorted once here.
    """

    def __init__(
        self,
        speedups: dict,
        default_generation: str = "V100",
        base_estimator: ComputeEstimator = linear_compute_estimator,
    ) -> None:
        if default_generation not in speedups:
            raise ValueError(
                f"default generation {default_generation!r} missing "
                f"from the speedup table"
            )
        self._speedups = dict(speedups)
        #: ``(generation, factor)`` slowest first, ties by name.
        self._by_speed = sorted(
            self._speedups.items(), key=lambda kv: (kv[1], kv[0])
        )
        self.default_generation = default_generation
        #: job_id -> generation name; written by heterogeneity-aware
        #: policies each round, cleared by the scheduler between rounds.
        self.assignments: dict = {}
        self._base_estimator = base_estimator
        super().__init__(compute_estimator=self._het_compute)

    @property
    def speedups(self) -> types.MappingProxyType:
        """Generation name -> speedup factor (read-only)."""
        return types.MappingProxyType(self._speedups)

    @property
    def base_estimator(self) -> ComputeEstimator:
        """The generation-free compute estimator the speedups scale."""
        return self._base_estimator

    def _het_compute(self, job: Job, gpus: float) -> float:
        return self._base_estimator(job, gpus) * self.speedup_of(
            job.job_id
        )

    def speedup_of(self, job_id: str) -> float:
        """The speedup factor of the job's assigned generation."""
        generation = self.assignments.get(
            job_id, self.default_generation
        )
        return self._speedups[generation]

    def f_star_by_generation(self, job: Job) -> dict:
        """``{generation: f*(job, generation)}`` at the full request.

        Keys iterate in speedup order (slowest first) so the dict is
        deterministic regardless of table insertion order.
        """
        base = self._base_estimator(job, job.num_gpus)
        return {gen: base * factor for gen, factor in self._by_speed}

