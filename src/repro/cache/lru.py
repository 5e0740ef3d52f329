"""LRU caching under deep-learning access patterns: the thrashing model.

Deep-learning training reads every item exactly once per epoch in a fresh
random order. Under LRU this is close to a worst case: when an item is
re-accessed in the next epoch, *every* item after it in the previous epoch
and before it in the current one has been touched in between, so the stack
distance is huge and useful items get evicted before reuse — the paper's
"thrashing" (§7.1.1).

Closed form
-----------
Let ``gamma = s/d`` be the job's LRU stack share relative to its dataset.
An item sits at position ``a ~ U(0, d)`` in epoch ``e`` and ``b ~ U(0, d)``
in epoch ``e+1``; the distinct items touched between its two accesses
number ``|A ∪ B| = a' + b - a'b/d`` with ``a' = d - a`` (the union of the
tail of epoch ``e`` and the head of epoch ``e+1``; the two uniform subsets
overlap in expectation ``a'b/d``). The access is a hit iff that stack
distance is below ``s``. Substituting ``u = a'/d, v = b/d ~ U(0,1)``:

    P(hit) = P(1 - (1-u')(1-v) < gamma) = P(uv > 1 - gamma)
           = gamma + (1 - gamma) ln(1 - gamma)

which is ``~ gamma^2 / 2`` for small shares — *quadratically* worse than
uniform caching's ``gamma`` — and reaches 1 only at full coverage.

When several jobs share one LRU pool, accesses interleave in proportion to
byte rates, so job ``j``'s effective stack share is ``C * r_j / sum_r`` —
fast (cache-efficient) jobs implicitly evict slow jobs' items, the effect
the paper credits for Alluxio beating CoorDL cluster-wide (§7.1.2).

The item-level simulation in ``repro.cache.items`` validates this closed
form (see ``tests/cache/test_lru_model.py``).
"""

from __future__ import annotations

import math
from typing import Dict


def lru_epoch_hit_ratio(stack_share_mb: float, dataset_mb: float) -> float:
    """Steady-state LRU hit ratio for shuffled once-per-epoch access."""
    if dataset_mb <= 0:
        raise ValueError("dataset size must be positive")
    if stack_share_mb < 0:
        raise ValueError("stack share must be non-negative")
    gamma = min(1.0, stack_share_mb / dataset_mb)
    if gamma >= 1.0:
        return 1.0
    if gamma <= 0.0:
        return 0.0
    return gamma + (1.0 - gamma) * math.log(1.0 - gamma)


def shared_lru_shares(
    access_rates_mbps: Dict[str, float], pool_mb: float
) -> Dict[str, float]:
    """Stack share of a shared LRU pool per job, proportional to rate."""
    total_rate = sum(access_rates_mbps.values())
    if total_rate <= 0:
        return {job_id: 0.0 for job_id in access_rates_mbps}
    return {
        job_id: pool_mb * rate / total_rate
        for job_id, rate in access_rates_mbps.items()
    }
