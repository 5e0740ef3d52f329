"""Fixture: policy-interface violations for the policy pass."""

from repro.core.policies.base import SchedulingPolicy
from repro.sim import fluid  # POL002: simulator internals


class HollowPolicy(SchedulingPolicy):  # POL001: no schedule, no name
    """A policy that implements nothing and peeks everywhere."""

    def peek(self, simulator):
        """Reach straight into the simulator's private state."""
        return simulator._event_queue  # POL003

    def widen(self, allocation):
        """Mutate another object's private bookkeeping."""
        allocation._grants["j1"] = fluid and 1.0  # POL003


class SilentHetPolicy(SchedulingPolicy):  # POL004: no gen_scores
    """Claims heterogeneity awareness, publishes nothing."""

    name = "silent-het"
    heterogeneity_aware = True

    def schedule(self, jobs, total, ctx):
        """Allocate without ever exposing per-generation scores."""
        return ctx.estimator.empty_allocation()


class ServiceOrderPolicy(SchedulingPolicy):
    """Least attained service first (impure, and says nothing)."""

    name = "service-order"

    def schedule(self, jobs, total, ctx):
        """Admit by attained service."""
        allocation = ctx.estimator.empty_allocation()
        for job in sorted(jobs, key=ctx.attained_service_s):
            allocation.grant_gpus(job.job_id, job.num_gpus)
        return allocation


class PureServiceOrderPolicy(ServiceOrderPolicy):  # POL005: reads service
    """Opts in to round reuse although its order moves with service."""

    name = "pure-service-order"
    pure_round = True
