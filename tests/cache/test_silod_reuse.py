"""The SiloD data manager's decision reuse (``reallocate``).

Within one allocation epoch a SiloD decision depends only on the running
jobs' effective bytes, so ``reallocate`` hands the previous decision
object back when none of them moved, and the fluid simulator then skips
re-applying it. The unit tests pin when reuse may and may not happen;
the differential tests run whole simulations, untraced and traced,
against a data manager that always recomputes and require bit-identical
records and timeline (and, traced, event logs).
"""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.cache.base import StorageContext
from repro.cache.prefetch import PrefetchingDataManager
from repro.cache.silod_cache import SiloDDataManager
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator
from repro.core.resources import Allocation
from repro.faults import FaultEvent
from repro.obs import Tracer
from repro.sim.fluid import FluidSimulator
from repro.sim.runner import make_system
from tests.faults.conftest import data_manager_restarts, server_losses

GB = 1024.0


def bitwise(x):
    """Hashable bit-exact view (floats as ``hex``)."""
    if dataclasses.is_dataclass(x):
        return tuple(
            (f.name, bitwise(getattr(x, f.name)))
            for f in dataclasses.fields(x)
        )
    if isinstance(x, dict):
        return tuple(sorted((k, bitwise(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(bitwise(v) for v in x)
    if isinstance(x, float):
        return "nan" if math.isnan(x) else x.hex()
    return x


# ----------------------------------------------------------------------
# Unit tests on hand-built contexts.
# ----------------------------------------------------------------------


def _jobs(n):
    return [
        Job(
            job_id=f"j{i}",
            model="m",
            dataset=Dataset(f"d{i % 3}", (100.0 + 10.0 * i) * GB),
            num_gpus=1 + i % 2,
            ideal_throughput_mbps=50.0 + 7.0 * i,
            total_work_mb=1e6,
        )
        for i in range(n)
    ]


def _allocation(jobs):
    allocation = Allocation()
    for i, job in enumerate(jobs):
        allocation.grant_gpus(job.job_id, float(job.num_gpus))
        allocation.grant_remote_io(job.job_id, 5.0 + 3.0 * i)
    allocation.grant_cache("d0", 80.0 * GB)
    allocation.grant_cache("d1", 40.0 * GB)
    return allocation


def _f_stars(jobs, allocation, estimator):
    """The fluid simulator's per-epoch ``f*`` column for ``jobs``."""
    return estimator.compute_bound_batch(
        jobs, [allocation.gpus_of(job.job_id) for job in jobs]
    )


class _Epoch:
    """One allocation epoch: jobs, allocation, live effective bytes."""

    def __init__(self, n):
        self.jobs = _jobs(n)
        self.allocation = _allocation(self.jobs)
        self.estimator = SiloDPerfEstimator()
        self.effective = {
            job.job_id: 4.0 * GB * i for i, job in enumerate(self.jobs)
        }
        self.f_stars = _f_stars(self.jobs, self.allocation, self.estimator)

    def ctx(
        self,
        tracer=None,
        total_io_mbps=200.0,
        f_stars=None,
        queued=(),
        total_cache_mb=120.0 * GB,
    ):
        extra = {} if tracer is None else {"tracer": tracer}
        return StorageContext(
            running_jobs=self.jobs,
            gpu_grants=dict(self.allocation.gpus),
            total_gpus=16.0,
            total_cache_mb=total_cache_mb,
            total_io_mbps=total_io_mbps,
            effective_mb=self.effective,
            first_epoch_done=lambda job: True,
            estimator=self.estimator,
            f_stars=self.f_stars if f_stars is None else f_stars,
            scheduler_allocation=self.allocation,
            queued_jobs=queued,
            **extra,
        )


SIZES = pytest.mark.parametrize("n", [3, 10])


@SIZES
def test_unchanged_effective_bytes_return_the_same_object(n):
    epoch = _Epoch(n)
    manager = SiloDDataManager()
    first = manager.reallocate(epoch.ctx())
    assert manager.reallocate(epoch.ctx()) is first
    assert manager.reallocate(epoch.ctx()) is first


@SIZES
def test_one_changed_value_gives_a_fresh_decision(n):
    epoch = _Epoch(n)
    manager = SiloDDataManager()
    first = manager.reallocate(epoch.ctx())
    epoch.effective["j1"] += 1.0 * GB
    fresh = manager.reallocate(epoch.ctx())
    assert fresh is not first
    assert bitwise(fresh) == bitwise(SiloDDataManager().decide(epoch.ctx()))
    assert bitwise(fresh) != bitwise(first)
    # The fresh decision is reusable in turn.
    assert manager.reallocate(epoch.ctx()) is fresh


@SIZES
def test_snapshot_is_what_decide_read(n):
    """Scaling effective bytes after a decision (as applying its
    targets does) must defeat the reuse: the snapshot is taken when
    ``decide`` reads, not afterwards."""
    epoch = _Epoch(n)
    manager = SiloDDataManager()
    first = manager.reallocate(epoch.ctx())
    for jid in epoch.effective:
        epoch.effective[jid] *= 0.5
    again = manager.reallocate(epoch.ctx())
    assert again is not first
    assert bitwise(again) == bitwise(SiloDDataManager().decide(epoch.ctx()))


def _events(tracer):
    """A tracer's events as bit-exact tuples, ``seq`` included."""
    return [bitwise(event.to_dict()) for event in tracer.events]


#: name -> a data manager and how many queued jobs its contexts carry.
MANAGERS = {
    "silod": (SiloDDataManager, 0),
    "silod-no-io-alloc": (lambda: SiloDDataManager(io_allocation=False), 0),
    "prefetch": (PrefetchingDataManager, 1),
}


@SIZES
@pytest.mark.parametrize("manager_name", sorted(MANAGERS))
def test_traced_reuse_replays_io_throttle(n, manager_name):
    """A repeated traced round hands back the same decision object and
    emits, field for field and in order, the ``io_throttle`` events a
    fresh ``decide`` emits on the same context."""
    make, queued = MANAGERS[manager_name]
    epoch = _Epoch(n)
    queue = [_queued(i) for i in range(queued)]

    def ctx(tracer=None):
        return epoch.ctx(
            tracer=tracer, queued=queue, total_cache_mb=200.0 * GB
        )

    manager = make()
    first_tracer, again_tracer, fresh_tracer = Tracer(), Tracer(), Tracer()
    first = manager.reallocate(ctx(first_tracer))
    again = manager.reallocate(ctx(again_tracer))
    assert again is first
    fresh = make().decide(ctx(fresh_tracer))
    assert bitwise(fresh) == bitwise(first)
    assert len(again_tracer.events) == n
    assert {event.etype for event in again_tracer.events} == {"io_throttle"}
    assert _events(again_tracer) == _events(fresh_tracer)
    assert _events(again_tracer) == _events(first_tracer)
    # An untraced round reuses the traced decision, and a traced round
    # after it replays the events again.
    assert manager.reallocate(ctx()) is first
    replay_tracer = Tracer()
    assert manager.reallocate(ctx(replay_tracer)) is first
    assert _events(replay_tracer) == _events(fresh_tracer)


@SIZES
def test_reset_drops_the_reusable_decision(n):
    epoch = _Epoch(n)
    manager = SiloDDataManager()
    first = manager.reallocate(epoch.ctx())
    manager.reset()
    assert manager.reallocate(epoch.ctx()) is not first


@SIZES
def test_new_hints_mean_no_reuse(n):
    epoch = _Epoch(n)
    manager = SiloDDataManager()
    first = manager.reallocate(epoch.ctx())
    # An equal column from a new gather is a new epoch: the memo keys on
    # the column's identity.
    new_f_stars = _f_stars(epoch.jobs, epoch.allocation, epoch.estimator)
    assert new_f_stars == epoch.f_stars
    assert manager.reallocate(epoch.ctx(f_stars=new_f_stars)) is not first


@SIZES
def test_egress_change_means_no_reuse(n):
    epoch = _Epoch(n)
    manager = SiloDDataManager(io_allocation=False)
    first = manager.reallocate(epoch.ctx())
    halved = manager.reallocate(epoch.ctx(total_io_mbps=100.0))
    assert halved is not first
    assert bitwise(halved) == bitwise(
        SiloDDataManager(io_allocation=False).decide(
            epoch.ctx(total_io_mbps=100.0)
        )
    )


# ----------------------------------------------------------------------
# Differential: whole simulations against an always-recomputing manager.
# ----------------------------------------------------------------------


class _AlwaysDecide(SiloDDataManager):
    """The data manager with reuse disabled: every round recomputes."""

    def reallocate(self, ctx):
        return self.decide(ctx)


def _trace(seed, num_jobs, shared):
    rng = random.Random(seed)
    jobs = []
    for i in range(num_jobs):
        dataset = f"d{rng.randrange(3)}" if shared else f"d{i}"
        size_gb = 20.0 + 10.0 * (sum(map(ord, dataset)) % 9)
        jobs.append(
            Job(
                job_id=f"j{i:02d}",
                model="m",
                dataset=Dataset(dataset, size_gb * GB),
                num_gpus=rng.choice((1, 1, 2, 4)),
                ideal_throughput_mbps=rng.uniform(20.0, 200.0),
                total_work_mb=rng.uniform(0.5, 3.0) * size_gb * GB,
                submit_time_s=rng.uniform(0.0, 3000.0),
            )
        )
    return jobs


def _simulate(
    manager_cls, cache, policy, jobs, cache_gb, faults, online, tracer=None
):
    scheduler, _ = make_system(policy, "silod")
    fleet = Cluster.build(4, 4, units.gb(cache_gb), 150.0)
    sim = FluidSimulator(
        fleet,
        scheduler,
        manager_cls(io_allocation=(cache == "silod")),
        jobs,
        reschedule_interval_s=600.0,
        sample_interval_s=300.0,
        faults=faults(fleet),
        tracer=tracer,
    )
    if not online:
        result = sim.run()
    else:
        sim.begin()
        extra = [
            dataclasses.replace(job, job_id=f"o{i}")
            for i, job in enumerate(_trace(99, 3, shared=True))
        ]
        script = [
            (500.0, "submit", extra[0]),
            (900.0, "cancel", jobs[1].job_id),
            (1200.0, "submit", extra[1]),
            (1500.0, "cancel", "o1"),
            (2000.0, "submit", extra[2]),
        ]
        for at_s, action, arg in script:
            while sim.step(limit_s=at_s):
                pass
            if action == "submit":
                sim.submit_job(dataclasses.replace(arg, submit_time_s=at_s))
            else:
                sim.cancel_job(arg)
        while sim.step():
            pass
        result = sim.finish()
    counters = (sim.sched_rounds, sim.decision_rounds, sim.loop_events)
    return bitwise(result.records), bitwise(result.timeline), counters


#: name -> the fault schedule on a given fleet.
FAULTS = {
    "none": lambda fleet: [],
    "churn": lambda fleet: [
        *server_losses(fleet, 1100.0),
        *data_manager_restarts(1700.0),
        FaultEvent(800.0, "bandwidth", magnitude=0.25),
        FaultEvent(2600.0, "bandwidth", magnitude=1.0),
        FaultEvent(2000.0, "cache_loss", magnitude=0.5),
    ],
}


def _queued(i):
    return Job(
        job_id=f"q{i}",
        model="m",
        dataset=Dataset(f"q{i}", 30.0 * GB),
        num_gpus=1,
        ideal_throughput_mbps=90.0 - 10.0 * i,
        total_work_mb=1e6,
    )


@SIZES
def test_a_changed_queue_means_no_prefetch_reuse(n):
    """The prefetching manager's ``decide`` reads the queue: the same
    column, allocation and effective bytes with a different queue (the
    kernel appends an arrival to the live list) are decided afresh."""
    epoch = _Epoch(n)
    manager = PrefetchingDataManager()
    queue = [_queued(0)]
    room = 200.0 * GB
    first = manager.reallocate(epoch.ctx(queued=queue, total_cache_mb=room))
    assert first.prefetch_rates
    assert (
        manager.reallocate(epoch.ctx(queued=queue, total_cache_mb=room))
        is first
    )
    queue.append(_queued(1))
    grown = manager.reallocate(epoch.ctx(queued=queue, total_cache_mb=room))
    assert grown is not first
    assert bitwise(grown) == bitwise(
        PrefetchingDataManager().decide(
            epoch.ctx(queued=queue, total_cache_mb=room)
        )
    )
    assert bitwise(grown) != bitwise(first)
    # So is a changed cache pool.
    assert (
        manager.reallocate(epoch.ctx(queued=queue, total_cache_mb=room / 2))
        is not grown
    )


@SIZES
def test_the_base_manager_reuses_across_a_changed_queue(n):
    """SiloD's own ``decide`` reads neither the queue nor the pool, so
    an arrival that queues keeps its decision."""
    epoch = _Epoch(n)
    manager = SiloDDataManager()
    first = manager.reallocate(epoch.ctx(queued=[_queued(0)]))
    again = manager.reallocate(
        epoch.ctx(queued=[_queued(0), _queued(1)], total_cache_mb=200.0 * GB)
    )
    assert again is first


def _differential(max_examples):
    """Hypothesis draws of whole simulations, with two pinned draws
    where a target shrink is followed by a quiet epoch boundary: a
    snapshot taken after the eviction instead of as decide read the
    bytes would reuse a stale decision there."""

    def wrap(test):
        test = given(
            seed=st.integers(0, 2**16),
            num_jobs=st.integers(6, 18),
            shared=st.booleans(),
            cache_gb=st.sampled_from([8.0, 60.0, 400.0]),
            faults=st.sampled_from(sorted(FAULTS)),
            online=st.booleans(),
            policy=st.sampled_from(["fifo", "sjf", "gavel"]),
            cache=st.sampled_from(["silod", "silod-no-io-alloc"]),
        )(test)
        test = example(
            seed=54080, num_jobs=17, shared=False, cache_gb=60.0,
            faults="none", online=False, policy="gavel", cache="silod",
        )(test)
        test = example(
            seed=2642, num_jobs=16, shared=False, cache_gb=8.0,
            faults="churn", online=True, policy="fifo", cache="silod",
        )(test)
        return settings(max_examples=max_examples, deadline=None)(test)

    return wrap


@_differential(max_examples=30)
def test_reuse_is_bit_identical_to_always_deciding(
    seed, num_jobs, shared, cache_gb, faults, online, policy, cache
):
    jobs = _trace(seed, num_jobs, shared)
    args = (cache, policy, jobs, cache_gb, FAULTS[faults], online)
    assert _simulate(SiloDDataManager, *args) == _simulate(
        _AlwaysDecide, *args
    )


def _scrubbed_events(tracer):
    """The event log, bit-exact, without the wall-clock ``latency_ms``."""
    rows = []
    for event in tracer.events:
        row = event.to_dict()
        row.pop("latency_ms", None)
        rows.append(bitwise(row))
    return rows


@_differential(max_examples=30)
def test_traced_reuse_is_bit_identical_to_always_deciding(
    seed, num_jobs, shared, cache_gb, faults, online, policy, cache
):
    """The traced twin: reuse plus replay yields the always-deciding
    run's records, timeline, counters and whole event log."""
    jobs = _trace(seed, num_jobs, shared)
    args = (cache, policy, jobs, cache_gb, FAULTS[faults], online)
    runs = []
    for manager_cls in (SiloDDataManager, _AlwaysDecide):
        tracer = Tracer()
        outcome = _simulate(manager_cls, *args, tracer=tracer)
        runs.append((outcome, _scrubbed_events(tracer)))
    assert runs[0] == runs[1]
