"""POL fixture: a conformant policy the sibling module extends."""

from repro.core.policies.base import SchedulingPolicy


class ArrivalPolicy(SchedulingPolicy):
    """Admit every job in arrival order."""

    name = "arrival"

    def schedule(self, jobs, total, ctx):
        allocation = ctx.estimator.empty_allocation()
        for job in sorted(jobs, key=lambda j: j.submit_time_s):
            allocation.grant_gpus(job.job_id, job.num_gpus)
        return allocation
