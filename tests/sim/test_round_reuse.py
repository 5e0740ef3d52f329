"""Reused scheduling rounds (``SiloDScheduler.schedule``).

A policy that declares ``pure_round`` depends only on the job list, the
totals and the effective bytes, so a round whose inputs repeat keeps
the allocation already in force instead of calling the policy, and the
kernel keeps its round view. The first differential test runs whole
simulations against the same policy under a subclass that opts out, and
requires bit-identical results; traced, both runs must also emit the
same events and registry, but for the wall-clock decision latency.

A round whose solve returns an allocation equal to the one in force gets
the in-force object back, the round view survives an admission, and the
greedy storage step reuses its last grants. The second differential test
runs a busy trace, where arrivals queue behind a full cluster, against a
twin that does none of the three and never reuses a round.
"""

import copy
import random

import pytest

from repro import units
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator
from repro.core.resources import Allocation
from repro.faults import FaultEvent, FaultSchedule
from repro.obs import Tracer
from repro.sim.kernel import _RoundView
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


def _busy_trace():
    """More GPU demand than the 12-GPU fleets hold: arrivals queue."""
    rng = random.Random(34)
    jobs = []
    for i in range(14):
        # Seven datasets of 8-26 GB, about the 120 GB cache together:
        # running jobs leave room for prefetching queued ones.
        size_gb = 8.0 + 3.0 * (i % 7)
        ideal = rng.uniform(40.0, 160.0)
        jobs.append(
            Job(
                job_id=f"j{i:02d}",
                model="resnet50",
                dataset=Dataset(f"d{i % 7}", size_gb * GB),
                num_gpus=rng.choice((1, 2, 4, 4)),
                ideal_throughput_mbps=ideal,
                total_work_mb=ideal * rng.uniform(3000.0, 8000.0),
                submit_time_s=150.0 * i,
            )
        )
    return jobs


def _copied(allocation):
    """An equal allocation that is a new object."""
    fresh = Allocation()
    fresh.gpus = dict(allocation.gpus)
    fresh.cache = dict(allocation.cache)
    fresh.remote_io = dict(allocation.remote_io)
    return fresh


def _fresh_twin(scheduler, simulator_cls):
    """Never reuse: every round solved, every allocation a new object,
    every storage step recomputed, every admission a new round view."""
    scheduler.policy = _opted_out(scheduler.policy)
    if hasattr(scheduler.policy, "_storage_memo"):
        scheduler.policy._storage_memo = None
    schedule = scheduler.schedule
    scheduler.schedule = lambda *a, **kw: _copied(schedule(*a, **kw))

    class Dropping(simulator_cls):
        def _admit_arrivals(self):
            admitted = super()._admit_arrivals()
            if admitted:
                self._view = None
            return admitted

    return Dropping


def _check_view(sim):
    """A kept round view equals a fresh gather. The kept one goes back
    after: the data manager's memo keys on its ``f_stars`` object."""
    kept_view = sim._view
    if kept_view is None:
        return
    sim._view = None
    fresh_view = sim._round_view()
    sim._view = kept_view
    assert [getattr(kept_view, name) for name in _RoundView.__slots__] == [
        getattr(fresh_view, name) for name in _RoundView.__slots__
    ]


def _simulate(
    policy, cache, fleet, simulator, opt_out, busy=False, tracer=None
):
    scheduler, cache_system = make_system(policy, cache)
    simulator_cls = SIMULATORS[simulator]
    if busy and opt_out:
        simulator_cls = _fresh_twin(scheduler, simulator_cls)
    elif opt_out:
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
    sim = simulator_cls(
        FLEETS[fleet](),
        scheduler,
        cache_system,
        _busy_trace() if busy else _trace(),
        sample_interval_s=300.0,
        faults=CHURN,
        tracer=tracer,
        **kwargs,
    )
    # Per round: (kept the allocation in force, right after an arrival).
    kept = []
    admitted = [False]
    admit_arrivals = sim._admit_arrivals
    schedule_round = sim._schedule_round

    def counted_admit():
        admitted[0] = admit_arrivals()
        return admitted[0]

    def counted_round():
        installed = schedule_round()
        kept.append((not installed, admitted[0] and not installed))
        admitted[0] = False
        return installed

    sim._admit_arrivals = counted_admit
    sim._schedule_round = counted_round
    generations = []
    sim.begin()
    while sim.step(limit_s=CANCEL_AT_S):
        if busy:
            _check_view(sim)
    assert sim.cancel_job("j04")
    while sim.step():
        if busy:
            _check_view(sim)
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
    if busy:
        return outcome, [sum(column) for column in zip(*kept)]
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


def _without_latency(tracer):
    """The events, and the registry snapshot, minus wall-clock latency."""
    events = []
    for event in tracer.events:
        fields = event.fields
        fields.pop("latency_ms", None)
        events.append((event.ts_s, event.etype, event.job_id, fields))
    snapshot = tracer.metrics.snapshot()
    del snapshot["cluster"]["windows"]["decision_latency_ms"]
    return events, snapshot


@pytest.mark.parametrize("simulator", sorted(SIMULATORS))
@pytest.mark.parametrize("fleet", sorted(FLEETS))
@pytest.mark.parametrize("cache", ["silod", "alluxio"])
@pytest.mark.parametrize("policy", PURE_POLICIES)
def test_traced_reused_rounds_report_the_same_events(
    policy, cache, fleet, simulator
):
    args = (policy, cache, fleet, simulator)
    traced, fresh_traced = Tracer(), Tracer()
    reused, calls, rounds = _simulate(*args, opt_out=False, tracer=traced)
    fresh, fresh_calls, fresh_rounds = _simulate(
        *args, opt_out=True, tracer=fresh_traced
    )
    assert reused == fresh
    assert _without_latency(traced) == _without_latency(fresh_traced)
    assert (rounds, fresh_calls) == (fresh_rounds, fresh_rounds)
    assert calls < rounds


@pytest.mark.parametrize("simulator", sorted(SIMULATORS))
@pytest.mark.parametrize("fleet", sorted(FLEETS))
@pytest.mark.parametrize("cache", ["silod", "silod-prefetch"])
@pytest.mark.parametrize("policy", ["fifo", "las", "sjf"])
def test_kept_rounds_under_a_queue_are_bit_identical(
    policy, cache, fleet, simulator
):
    args = (policy, cache, fleet, simulator)
    reused, kept = _simulate(*args, opt_out=False, busy=True)
    fresh, fresh_kept = _simulate(*args, opt_out=True, busy=True)
    assert reused == fresh
    assert fresh_kept == [0, 0]
    assert kept[0] > 0
    if policy == "fifo":
        # Some arrivals queued behind the allocation in force and its
        # view. SJF and LAS grant every job an IO entry, so an arrival
        # always changes their allocation.
        assert kept[1] > 0


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
