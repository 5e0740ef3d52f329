"""Reused scheduling rounds (``SiloDScheduler.schedule``).

A policy that declares ``pure_round`` depends only on the job list, the
totals and the effective bytes, so an untraced round whose inputs repeat
keeps the allocation already in force instead of calling the policy, and
the kernel keeps its round view. The differential test runs whole
simulations against the same policy under a subclass that opts out, and
requires bit-identical results.
"""

import copy
import random

import pytest

from repro import units
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator
from repro.faults import FaultEvent, FaultSchedule
from repro.sim.runner import POLICY_FACTORIES, SIMULATORS, make_system
from tests.cache.test_silod_reuse import bitwise

GB = 1024.0

#: Every policy that declares ``pure_round``.
PURE_POLICIES = sorted(
    name
    for name, factory in POLICY_FACTORIES.items()
    if factory.pure_round
)

#: name -> a cluster factory.
FLEETS = {
    "uniform": lambda: Cluster.build(3, 4, units.gb(40), 150.0),
    "mixed": lambda: Cluster.build_mixed(
        [("K80", 1), ("P100", 1), ("V100", 1)],
        gpus_per_server=4,
        cache_per_server_mb=units.gb(40),
        remote_io_mbps=150.0,
    ),
}

#: Churn: a running job and a job preempted as it arrives restart, a
#: server crashes and recovers, and the egress flaps down and back.
CHURN = FaultSchedule(
    [
        FaultEvent(700.0, "job_preempt", target="j02"),
        FaultEvent(1900.0, "job_restart", target="j02"),
        FaultEvent(1000.0, "job_preempt", target="j05"),
        FaultEvent(2200.0, "job_restart", target="j05"),
        FaultEvent(1300.0, "bandwidth", magnitude=0.3),
        FaultEvent(2500.0, "bandwidth", magnitude=1.0),
        FaultEvent(3100.0, "server_crash", magnitude=1),
        FaultEvent(3700.0, "server_recover", magnitude=1),
    ]
)

#: When the run withdraws ``j04`` (a stepped ``cancel_job``).
CANCEL_AT_S = 900.0


def _trace():
    rng = random.Random(33)
    jobs = []
    for i in range(10):
        dataset = f"d{i % 4}"
        size_gb = 6.0 + 2.0 * (i % 4)
        ideal = rng.uniform(40.0, 160.0)
        jobs.append(
            Job(
                job_id=f"j{i:02d}",
                model="resnet50",
                dataset=Dataset(dataset, size_gb * GB),
                num_gpus=rng.choice((1, 1, 2, 4)),
                ideal_throughput_mbps=ideal,
                total_work_mb=ideal * rng.uniform(1500.0, 4000.0),
                submit_time_s=200.0 * i,
                # One job with a deadline it cannot meet.
                deadline_s=60.0 if i == 3 else None,
            )
        )
    return jobs


def _opted_out(policy):
    """The same policy under a test-side subclass that never reuses."""
    cls = type(policy)
    clone = copy.copy(policy)
    clone.__class__ = type(
        f"Impure{cls.__name__}", (cls,), {"pure_round": False}
    )
    return clone


def _simulate(policy, cache, fleet, simulator, opt_out):
    scheduler, cache_system = make_system(policy, cache)
    if opt_out:
        scheduler.policy = _opted_out(scheduler.policy)
    calls = []
    solve = scheduler.policy.schedule

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    scheduler.policy.schedule = counted
    if simulator == "fluid":
        kwargs = {"reschedule_interval_s": 300.0}
    else:
        kwargs = {"item_size_mb": 256.0, "decision_interval_s": 120.0}
    sim = SIMULATORS[simulator](
        FLEETS[fleet](),
        scheduler,
        cache_system,
        _trace(),
        sample_interval_s=300.0,
        faults=CHURN,
        **kwargs,
    )
    generations = []
    sim.begin()
    while sim.step(limit_s=CANCEL_AT_S):
        pass
    assert sim.cancel_job("j04")
    while sim.step():
        if simulator == "fluid":
            generations.append(
                tuple(
                    (job_id, sim.generation_of(job_id))
                    for job_id in sim._active
                )
            )
    result = sim.finish()
    estimator = scheduler.estimator
    last = (
        scheduler.last_scores,
        scheduler.last_gen_scores,
        scheduler.last_generations,
        estimator.assignments
        if isinstance(estimator, HetSiloDPerfEstimator)
        else None,
        getattr(scheduler.policy, "last_assignment_ratio", None),
    )
    allocation = sim._allocation
    outcome = (
        bitwise(result.records),
        bitwise(result.timeline),
        (sim.sched_rounds, sim.decision_rounds, sim.loop_events),
        bitwise(last),
        bitwise(
            (allocation.gpus, allocation.cache, allocation.remote_io)
        ),
        generations,
    )
    return outcome, len(calls), sim.sched_rounds


@pytest.mark.parametrize("simulator", sorted(SIMULATORS))
@pytest.mark.parametrize("fleet", sorted(FLEETS))
@pytest.mark.parametrize("cache", ["silod", "alluxio", "coordl", "quiver"])
@pytest.mark.parametrize("policy", PURE_POLICIES)
def test_reused_rounds_are_bit_identical(policy, cache, fleet, simulator):
    args = (policy, cache, fleet, simulator)
    reused, calls, rounds = _simulate(*args, opt_out=False)
    fresh, fresh_calls, fresh_rounds = _simulate(*args, opt_out=True)
    assert reused == fresh
    assert (rounds, fresh_calls) == (fresh_rounds, fresh_rounds)
    # Reuse fired: some rounds kept the allocation without a solve.
    assert calls < rounds


def test_pure_policies_are_the_documented_set():
    assert PURE_POLICIES == [
        "fifo",
        "finish-time-fairness",
        "gavel",
        "het-max-min",
        "het-max-throughput",
        "max-throughput",
        "sjf",
    ]
