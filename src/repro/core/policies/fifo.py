"""FIFO scheduling.

FIFO is the paper's example of a scheduler that is *not*
performance-aware: it fixes the scheduling order by arrival time, so SiloD
cannot (and does not) change which jobs run. In SiloD mode it attaches the
greedy storage step (Algorithm 2 + IO division) to the FIFO-admitted jobs;
in vanilla mode it grants GPUs only.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cluster.job import Job
from repro.core.policies.base import (
    ScheduleContext,
    SchedulingPolicy,
    admit_in_order,
    StorageStepMemo,
    allocate_storage_greedily,
)
from repro.core.resources import Allocation, ResourceVector


class FifoPolicy(SchedulingPolicy):
    """First-in-first-out admission by submit time.

    Parameters
    ----------
    backfill:
        Whether jobs behind a too-large head job may run (default True,
        matching how production FIFO queues avoid idling a cluster).
    """

    name = "fifo"
    pure_round = True

    def __init__(self, backfill: bool = True) -> None:
        self._backfill = backfill
        self._storage_memo = StorageStepMemo()

    def order(self, jobs: Sequence[Job]) -> List[Job]:
        """Arrival order; ties broken by job id for determinism."""
        return sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))

    def schedule(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Allocation:
        allocation = Allocation()
        ordered = self.order(jobs)
        for rank, job in enumerate(ordered):
            ctx.job_scores[job.job_id] = float(rank)
        admitted = admit_in_order(
            ordered, total.gpus, allocation, backfill=self._backfill
        )
        if ctx.storage_aware and admitted:
            allocate_storage_greedily(
                admitted, total, allocation, ctx, memo=self._storage_memo
            )
        return allocation
