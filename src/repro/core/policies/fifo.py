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
    OrderBasedPolicy,
    ScheduleContext,
    StorageStepMemo,
)
from repro.core.resources import ResourceVector


class FifoPolicy(OrderBasedPolicy):
    """First-in-first-out admission by submit time, with backfill.

    Remote IO is waterfilled: arrival order says nothing about which
    job's demand matters more.
    """

    name = "fifo"
    pure_round = True
    waterfill_io = True

    def __init__(self) -> None:
        self._storage_memo = StorageStepMemo()

    def order(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> List[Job]:
        """Arrival order (ties by job id); the score is the rank."""
        ordered = sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))
        for rank, job in enumerate(ordered):
            ctx.job_scores[job.job_id] = float(rank)
        return ordered
