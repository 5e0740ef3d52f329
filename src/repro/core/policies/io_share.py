"""Remote-IO bandwidth division primitives.

Remote IO is exclusive per job (§6), so once cache is placed the scheduler
must divide the egress bandwidth among running jobs. Two divisions are
used in the paper's systems:

* **max-min waterfilling** on the jobs' demands — the "simple fair share
  algorithm" the baselines (and the IO-allocation-disabled ablation in
  §7.2) use, and SiloD's default once a policy has fixed cache;
* **priority-ordered filling** — grant each job its full demand in policy
  order (used by SJF so short jobs are never IO-starved by long ones).
"""

from __future__ import annotations

from typing import Dict, Sequence


def max_min_waterfill(
    demands: Dict[str, float], capacity: float
) -> Dict[str, float]:
    """Max-min fair division of ``capacity`` among ``demands``.

    Classic progressive filling: repeatedly give every unsatisfied job an
    equal share; jobs whose demand is met release their surplus. Jobs never
    receive more than their demand, and the result is the unique max-min
    fair allocation.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    grants = {job_id: 0.0 for job_id in demands}
    remaining = capacity
    active = sorted(
        (job_id for job_id, d in demands.items() if d > 0),
        key=lambda job_id: (demands[job_id], job_id),
    )
    while active and remaining > 1e-12:
        share = remaining / len(active)
        # The smallest remaining demand bounds this round's equal share.
        satisfied = []
        for job_id in active:
            need = demands[job_id] - grants[job_id]
            if need <= share + 1e-15:
                grants[job_id] = demands[job_id]
                remaining -= need
                satisfied.append(job_id)
        if not satisfied:
            # No demand fits inside the equal share: split evenly and stop.
            for job_id in active:
                grants[job_id] += share
            remaining = 0.0
            break
        done = set(satisfied)
        active = [job_id for job_id in active if job_id not in done]
    return grants


def priority_fill(
    ordered_job_ids: Sequence[str],
    demands: Dict[str, float],
    capacity: float,
) -> Dict[str, float]:
    """Grant full demands in priority order until capacity is exhausted."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    grants = {job_id: 0.0 for job_id in ordered_job_ids}
    remaining = capacity
    for job_id in ordered_job_ids:
        # ``min(demand, remaining)`` as the builtin's own comparison.
        demand = demands.get(job_id, 0.0)
        grant = remaining if remaining < demand else demand
        grants[job_id] = grant
        remaining -= grant
        if remaining <= 0:
            break
    return grants
