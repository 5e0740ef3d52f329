"""Algorithm 2: the greedy cache-allocation policy.

For schedulers that are not performance-aware (FIFO in the paper), SiloD
cannot change the scheduling order, but it can still exploit heterogeneous
cache efficiency: allocate cache to the datasets with the highest
**dataset-level cache efficiency** (the sum of the sharing jobs' ``f*/d``,
§6) until the cache is full, minimising the cluster's remote IO consumption
in a best-effort manner.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.cluster.job import Job
from repro.core import perf_model

def group_jobs_by_dataset(jobs: Iterable[Job]) -> Dict[str, List[Job]]:
    """Group jobs by dataset name (cache is charged once per dataset, §6)."""
    groups: Dict[str, List[Job]] = {}
    for job in jobs:
        groups.setdefault(job.dataset.name, []).append(job)
    return groups


def dataset_efficiencies(
    jobs: Iterable[Job],
) -> List[Tuple[str, float, float]]:
    """Per-dataset ``(name, cache_efficiency, size_mb)``, best first.

    Cache efficiency is in MB/s of remote IO saved per MB of cache; ties
    break on dataset name for determinism.
    """
    rows = []
    for name, group in group_jobs_by_dataset(jobs).items():
        size_mb = group[0].dataset.size_mb
        efficiency = perf_model.dataset_cache_efficiency(
            (j.ideal_throughput_mbps for j in group), size_mb
        )
        rows.append((name, efficiency, size_mb))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def greedy_cache_allocation(
    jobs: Iterable[Job],
    total_cache_mb: float,
) -> Dict[str, float]:
    """Algorithm 2: fill the cache with the most cache-efficient datasets.

    Unlike Quiver, partial caching is allowed — Eq 4 shows a job benefits
    from any cached fraction — so the last dataset admitted may receive
    whatever space remains.

    Returns ``{dataset_name: cache_mb}`` (datasets receiving 0 are omitted).
    """
    if total_cache_mb < 0:
        raise ValueError("total cache must be non-negative")
    allocation: Dict[str, float] = {}
    remaining = total_cache_mb
    for name, _efficiency, size_mb in dataset_efficiencies(jobs):
        if remaining <= 0:
            break
        # ``min(size_mb, remaining)`` as the builtin's own comparison.
        grant = remaining if remaining < size_mb else size_mb
        if grant > 0:
            allocation[name] = grant
            remaining -= grant
    return allocation
