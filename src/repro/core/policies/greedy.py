"""Algorithm 2: the greedy cache-allocation policy.

For schedulers that are not performance-aware (FIFO in the paper), SiloD
cannot change the scheduling order, but it can still exploit heterogeneous
cache efficiency: allocate cache to the datasets with the highest
**dataset-level cache efficiency** (the sum of the sharing jobs' ``f*/d``,
§6) until the cache is full, minimising the cluster's remote IO consumption
in a best-effort manner.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.cluster.job import Job
from repro.core import perf_model

#: Below this many jobs the scalar per-dataset sums win; matches the
#: estimator's batch cutoff.
_BATCH_MIN_JOBS = 8


def group_jobs_by_dataset(jobs: Iterable[Job]) -> Dict[str, List[Job]]:
    """Group jobs by dataset name (cache is charged once per dataset, §6)."""
    groups: Dict[str, List[Job]] = {}
    for job in jobs:
        groups.setdefault(job.dataset.name, []).append(job)
    return groups


def dataset_efficiencies(
    jobs: Iterable[Job], vectorized: bool
) -> List[Tuple[str, float, float]]:
    """Per-dataset ``(name, cache_efficiency, size_mb)``, best first.

    Cache efficiency is in MB/s of remote IO saved per MB of cache; ties
    break on dataset name for determinism. ``vectorized`` is the
    caller's backend (policies pass their estimator's); both give the
    same rows.
    """
    jobs = list(jobs)
    if len(jobs) >= _BATCH_MIN_JOBS and vectorized:
        rows = _dataset_efficiencies_batch(jobs)
        if rows is not None:
            rows.sort(key=lambda row: (-row[1], row[0]))
            return rows
    rows = []
    for name, group in group_jobs_by_dataset(jobs).items():
        size_mb = group[0].dataset.size_mb
        efficiency = perf_model.dataset_cache_efficiency(
            (j.ideal_throughput_mbps for j in group), size_mb
        )
        rows.append((name, efficiency, size_mb))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def _dataset_efficiencies_batch(
    jobs: List[Job],
) -> Optional[List[Tuple[str, float, float]]]:
    """Vectorized ``dataset_efficiencies`` rows (unsorted).

    One elementwise ``f*/d`` division (bit-identical to the scalar
    ``cache_efficiency`` per job — every job in a group is divided by the
    group's *first* job's size, as the scalar path does), then a single
    ordered Python pass accumulates per dataset so each group's
    left-to-right sum order is exactly the scalar ``sum()``'s. Returns
    ``None`` for inputs the scalar path rejects (non-positive sizes,
    negative throughputs), so its ``ValueError`` fires unchanged.
    """
    import numpy as np  # the caller selected the vectorized backend

    n = len(jobs)
    first_size: Dict[str, float] = {}
    for job in jobs:
        first_size.setdefault(job.dataset.name, job.dataset.size_mb)
    thr = np.fromiter(
        (job.ideal_throughput_mbps for job in jobs), float, count=n
    )
    size = np.fromiter(
        (first_size[job.dataset.name] for job in jobs), float, count=n
    )
    if not (size > 0).all() or (thr < 0).any():
        return None
    per_job = (thr / size).tolist()
    acc: Dict[str, List[float]] = {}
    for job, efficiency in zip(jobs, per_job):
        name = job.dataset.name
        entry = acc.get(name)
        if entry is None:
            # sum() starts from 0; 0.0 + x is exact for every float.
            acc[name] = [0.0 + efficiency, first_size[name]]
        else:
            entry[0] += efficiency
    return [(name, vals[0], vals[1]) for name, vals in acc.items()]


def greedy_cache_allocation(
    jobs: Iterable[Job],
    total_cache_mb: float,
    vectorized: bool,
) -> Dict[str, float]:
    """Algorithm 2: fill the cache with the most cache-efficient datasets.

    Unlike Quiver, partial caching is allowed — Eq 4 shows a job benefits
    from any cached fraction — so the last dataset admitted may receive
    whatever space remains.

    Returns ``{dataset_name: cache_mb}`` (datasets receiving 0 are omitted).
    ``vectorized`` selects the backend as in :func:`dataset_efficiencies`.
    """
    if total_cache_mb < 0:
        raise ValueError("total cache must be non-negative")
    allocation: Dict[str, float] = {}
    remaining = total_cache_mb
    for name, _efficiency, size_mb in dataset_efficiencies(jobs, vectorized):
        if remaining <= 0:
            break
        grant = min(size_mb, remaining)
        if grant > 0:
            allocation[name] = grant
            remaining -= grant
    return allocation
