"""Fixture: the clean twin of ``policy_bad`` — a conformant policy."""

from repro.core.policies.base import SchedulingPolicy


class WellBehavedPolicy(SchedulingPolicy):
    """Implements the interface; touches only public surface."""

    name = "well-behaved"

    def schedule(self, jobs, total, ctx):
        """Allocate through the public Allocation API only."""
        allocation = ctx.estimator.empty_allocation()
        for job in jobs:
            allocation.grant_gpus(job.job_id, job.num_gpus)
        return allocation


class RefinedPolicy(WellBehavedPolicy):
    """Inherits schedule() and name from a local conformant base."""

    def tiebreak(self, jobs):
        """A public helper; inherited interface keeps POL001 quiet."""
        return sorted(jobs, key=lambda job: job.job_id)


class HonestHetPolicy(WellBehavedPolicy):
    """Declares heterogeneity awareness and publishes gen scores."""

    name = "honest-het"
    heterogeneity_aware = True

    def schedule(self, jobs, total, ctx):
        """Publish per-generation f* before allocating."""
        for job in jobs:
            ctx.gen_scores[job.job_id] = {"V100": 100.0}
        return super().schedule(jobs, total, ctx)


class InheritedHetPolicy(HonestHetPolicy):
    """Inherits both the declaration and the publishing ancestor."""

    name = "inherited-het"


class PureArrivalPolicy(WellBehavedPolicy):
    """Opts in to round reuse; reads neither the clock nor service."""

    name = "pure-arrival"
    pure_round = True


class ClockedPolicy(PureArrivalPolicy):
    """Reads the clock, so it opts back out of its parent's reuse."""

    name = "clocked"
    pure_round = False

    def schedule(self, jobs, total, ctx):
        """Skip jobs submitted in the future."""
        ready = [job for job in jobs if job.submit_time_s <= ctx.now_s]
        return super().schedule(ready, total, ctx)
