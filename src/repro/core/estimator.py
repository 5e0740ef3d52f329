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

from typing import Callable, List, Optional, Sequence

from repro.backend import numpy_enabled, require_numpy
from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.resources import ResourceVector

#: Signature of a compute-only estimator: (job, gpus granted) -> MB/s.
ComputeEstimator = Callable[[Job, float], float]

#: Below this many jobs the vectorized batch path is not worth the numpy
#: call overhead; the loop fallback runs instead (results are identical
#: either way, so the cutoff is purely a latency knob).
_BATCH_MIN_JOBS = 8


def linear_compute_estimator(job: Job, gpus: float) -> float:
    """Scale the profiled ``f*`` linearly with the granted GPU fraction.

    Jobs are profiled at their requested GPU count; granting fewer GPUs
    (time-sharing in Gavel) scales throughput proportionally, granting more
    than requested gives no benefit (the job cannot use them).
    """
    fraction = min(1.0, gpus / job.num_gpus)
    return job.ideal_throughput_mbps * fraction


class SiloDPerfEstimator:
    """``min(perf, IOPerf)`` — the enhanced estimator of Algorithm 1.

    Parameters
    ----------
    compute_estimator:
        The original scheduler's ``perf(j, R)`` in MB/s. Defaults to
        :func:`linear_compute_estimator`.

    Attributes
    ----------
    numpy:
        The numpy module when the vectorized backend was selected at
        construction (``REPRO_NO_NUMPY`` unset), else ``None``. Batched
        evaluations and the policy helpers that take this estimator
        read the backend from here instead of re-checking the
        environment on every call.
    """

    def __init__(
        self, compute_estimator: ComputeEstimator = linear_compute_estimator
    ) -> None:
        self._compute_estimator = compute_estimator
        self.numpy = require_numpy() if numpy_enabled() else None

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
        """``[compute_bound(j, g) for j, g in zip(jobs, gpus)]``, batched.

        The hot callers (the fluid simulator's rate recompute, the
        per-round IO-demand pass, the SiloD data manager) evaluate the
        compute bound for every running job at once; with the default
        :func:`linear_compute_estimator` that is one elementwise numpy
        expression mirroring the scalar formula operation for operation
        (``f* * min(1.0, gpus / num_gpus)``), so the returned floats are
        bit-identical to the loop. Custom estimators (and the
        ``REPRO_NO_NUMPY=1`` fallback) take the loop.
        """
        jobs = list(jobs)
        np = self.numpy
        if (
            len(jobs) >= _BATCH_MIN_JOBS
            and self._compute_estimator is linear_compute_estimator
            and np is not None
        ):
            n = len(jobs)
            f_star = np.fromiter(
                (job.ideal_throughput_mbps for job in jobs), float, count=n
            )
            requested = np.fromiter(
                (job.num_gpus for job in jobs), float, count=n
            )
            granted = np.fromiter(gpus, float, count=n)
            fraction = np.minimum(1.0, granted / requested)
            return (f_star * fraction).tolist()
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

    def io_bound(
        self, job: Job, gpus: float, cache_mb: float, remote_io_mbps: float
    ) -> bool:
        """Whether the job would be IO-bound under this allocation."""
        if not job.regular:
            return False
        return perf_model.is_io_bound(
            self.compute_bound(job, gpus),
            remote_io_mbps,
            cache_mb,
            job.dataset.size_mb,
        )

    def estimated_duration_s(
        self,
        job: Job,
        gpus: float,
        cache_mb: float,
        remote_io_mbps: float,
    ) -> float:
        """``numSteps * stepDataSize / SiloDPerf`` — Eq 6's duration term."""
        throughput = self.estimate(job, gpus, cache_mb, remote_io_mbps)
        if throughput <= 0:
            return float("inf")
        return job.total_work_mb / throughput


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

    Because the wrapped compute estimator is not the module-level
    ``linear_compute_estimator`` object, :meth:`compute_bound_batch`
    always takes the scalar loop — heterogeneous estimates are
    backend-identical by construction (``REPRO_NO_NUMPY=1`` changes
    nothing).
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
        self.speedups = dict(speedups)
        self.default_generation = default_generation
        #: job_id -> generation name; written by heterogeneity-aware
        #: policies each round, cleared by the scheduler between rounds.
        self.assignments: dict = {}
        self._base_estimator = base_estimator
        super().__init__(compute_estimator=self._het_compute)

    def _het_compute(self, job: Job, gpus: float) -> float:
        return self._base_estimator(job, gpus) * self.speedup_of(
            job.job_id
        )

    def speedup_of(self, job_id: str) -> float:
        """The speedup factor of the job's assigned generation."""
        generation = self.assignments.get(
            job_id, self.default_generation
        )
        return self.speedups[generation]

    def generation_of(self, job_id: str) -> str:
        """The job's assigned generation (default when unassigned)."""
        return self.assignments.get(job_id, self.default_generation)

    def f_star_by_generation(self, job: Job) -> dict:
        """``{generation: f*(job, generation)}`` at the full request.

        Keys iterate in speedup order (slowest first) so the dict is
        deterministic regardless of table insertion order.
        """
        base = self._base_estimator(job, job.num_gpus)
        return {
            gen: base * factor
            for gen, factor in sorted(
                self.speedups.items(), key=lambda kv: (kv[1], kv[0])
            )
        }


class ThroughputMatrix:
    """Job × GPU-generation compute-bound throughput matrix.

    Capacity planning asks "what would this job mix consume on other
    hardware?" — e.g. sizing the egress limit a Figure 1-style upgrade
    would demand. Row *i*, column *k* is job *i*'s compute-bound data
    rate (``f*`` at its requested GPU count) scaled by generation *k*'s
    fp32 TFLOPS relative to the ``reference`` generation the jobs were
    profiled on (the paper profiles on V100, Table 2). These are the
    Figure 1 *plotted* TFLOPS (H100: with sparsity) — deliberate for
    capacity planning, which sizes against the headline trend; runtime
    scheduling instead uses the measured/dense-anchored
    ``perf_model.default_speedup_table`` via
    :class:`HetSiloDPerfEstimator`.

    The matrix is one outer product on the vectorized backend and a
    nested loop under ``REPRO_NO_NUMPY=1``; both produce bit-identical
    values (each entry is the same two-factor product).

    Attributes
    ----------
    job_ids:
        Row labels, in input order.
    generations:
        Column labels (GPU generation names), in input order.
    values:
        ``values[i][k]`` in MB/s, as plain Python floats.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        generations: Optional[Sequence[str]] = None,
        reference: str = "V100",
        estimator: Optional["SiloDPerfEstimator"] = None,
    ) -> None:
        from repro.cluster.hardware import GPU_GENERATIONS

        if generations is None:
            generations = sorted(
                GPU_GENERATIONS,
                key=lambda name: GPU_GENERATIONS[name].release_year,
            )
        for name in list(generations) + [reference]:
            if name not in GPU_GENERATIONS:
                raise ValueError(f"unknown GPU generation {name!r}")
        estimator = estimator or SiloDPerfEstimator()
        jobs = list(jobs)
        self.job_ids: List[str] = [job.job_id for job in jobs]
        self.generations: List[str] = list(generations)
        self.reference = reference
        ref_tflops = GPU_GENERATIONS[reference].fp32_tflops
        factors = [
            GPU_GENERATIONS[name].fp32_tflops / ref_tflops
            for name in self.generations
        ]
        f_stars = estimator.compute_bound_batch(
            jobs, [job.num_gpus for job in jobs]
        )
        if len(jobs) >= _BATCH_MIN_JOBS and numpy_enabled():
            np = require_numpy()
            matrix = np.multiply.outer(
                np.asarray(f_stars, float), np.asarray(factors, float)
            )
            self.values: List[List[float]] = matrix.tolist()
        else:
            self.values = [
                [f_star * factor for factor in factors]
                for f_star in f_stars
            ]

    def row(self, job_id: str) -> List[float]:
        """One job's throughput across generations."""
        return self.values[self.job_ids.index(job_id)]

    def column(self, generation: str) -> List[float]:
        """Every job's throughput on one generation."""
        k = self.generations.index(generation)
        return [row[k] for row in self.values]

    def total_demand_mbps(self, generation: str) -> float:
        """Aggregate compute-bound data demand on one generation.

        Sequential left-to-right sum (backend-identical); this is the
        egress a cluster of that generation would need with zero cache.
        """
        total = 0.0
        for value in self.column(generation):
            total += value
        return total
