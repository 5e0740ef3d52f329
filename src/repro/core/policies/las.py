"""Least-Attained-Service scheduling (Tiresias' Gittins-free variant).

Tiresias [34] — one of the schedulers the paper's multi-resource SJF
unifies — prioritises jobs by the GPU service they have *attained*: jobs
that have consumed the least GPU-time run first, which approximates SJF
without knowing durations in advance (attained service predicts remaining
service under heavy-tailed distributions). Like FIFO, LAS carries no
performance estimator, so SiloD attaches the greedy storage step (§5.3)
to whatever order LAS picks.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cluster.job import Job
from repro.core.policies.base import OrderBasedPolicy, ScheduleContext
from repro.core.resources import ResourceVector


class LasPolicy(OrderBasedPolicy):
    """Least attained service first; ties broken by arrival.

    Remote IO is granted full-demand-first in that order.
    """

    name = "las"

    def order(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> List[Job]:
        """Jobs by (attained service, arrival, job id); the score is the
        attained service, zero when the caller does not track it."""
        scores = ctx.job_scores
        attained = ctx.attained_service_s
        for job in jobs:
            scores[job.job_id] = 0.0 if attained is None else attained(job)
        return sorted(
            jobs,
            key=lambda j: (scores[j.job_id], j.submit_time_s, j.job_id),
        )
