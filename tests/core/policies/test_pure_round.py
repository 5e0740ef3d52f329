"""``SchedulingPolicy.pure_round``: a pure round ignores clock and service.

``SiloDScheduler.schedule`` hands back a pure policy's allocation in
force whenever the job list, totals and effective bytes repeat. That is
only sound if a fresh solve on the same inputs, at another time and with
other attained service, returns the same allocation and publishes the
same ``last_*`` fields. LAS orders jobs by attained service, so it stays
out.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator
from repro.core.policies.base import SchedulingPolicy
from repro.core.resources import Allocation, ResourceVector
from repro.core.silod import SiloDScheduler
from repro.obs.tracer import Tracer
from repro.sim.runner import POLICY_FACTORIES, make_policy
from tests.cache.test_silod_reuse import bitwise

PURE = sorted(
    name for name, factory in POLICY_FACTORIES.items() if factory.pure_round
)

job_spec = st.tuples(
    st.integers(min_value=1, max_value=4),  # num_gpus
    st.floats(min_value=20.0, max_value=400.0),  # ideal_throughput_mbps
    st.floats(min_value=512.0, max_value=8192.0),  # dataset size_mb
    st.integers(min_value=0, max_value=3),  # dataset index (shared)
    st.floats(min_value=0.0, max_value=1.0),  # effective fraction
    st.floats(min_value=0.0, max_value=1e5),  # attained service, call 1
    st.floats(min_value=0.0, max_value=1e5),  # attained service, call 2
)


def _round(specs):
    sizes = {}
    for spec in specs:
        sizes.setdefault(spec[3], spec[2])
    jobs = [
        Job(
            job_id=f"job-{i}",
            model="resnet50",
            dataset=Dataset(name=f"d-{k}", size_mb=sizes[k]),
            num_gpus=num_gpus,
            ideal_throughput_mbps=ideal,
            total_work_mb=4 * sizes[k],
            submit_time_s=float(i),
        )
        for i, (num_gpus, ideal, _, k, *_rest) in enumerate(specs)
    ]
    effective = {
        job.job_id: spec[4] * job.dataset.size_mb
        for job, spec in zip(jobs, specs)
    }
    services = [
        {job.job_id: spec[5 + call] for job, spec in zip(jobs, specs)}
        for call in (0, 1)
    ]
    return jobs, effective, services


def _scheduler(name, storage_aware, mixed):
    scheduler = SiloDScheduler(make_policy(name), storage_aware=storage_aware)
    if mixed:
        scheduler.enable_heterogeneity(
            Cluster.build_mixed(
                [("K80", 1), ("P100", 1), ("V100", 1)],
                gpus_per_server=4,
                cache_per_server_mb=4096.0,
                remote_io_mbps=400.0,
            )
        )
    return scheduler


def _solve(scheduler, jobs, total, effective, now_s, service):
    allocation = scheduler.schedule(
        jobs,
        total,
        now_s=now_s,
        effective_cache_mb=effective,
        attained_service_s=lambda job: service[job.job_id],
    )
    estimator = scheduler.estimator
    return (
        bitwise(allocation.gpus),
        bitwise(allocation.cache),
        bitwise(allocation.remote_io),
        bitwise(scheduler.last_scores),
        bitwise(scheduler.last_gen_scores),
        bitwise(scheduler.last_generations),
        bitwise(dict(estimator.assignments))
        if isinstance(estimator, HetSiloDPerfEstimator)
        else None,
        bitwise(getattr(scheduler.policy, "last_assignment_ratio", None)),
    )


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(PURE),
    specs=st.lists(job_spec, min_size=1, max_size=7),
    storage_aware=st.booleans(),
    mixed=st.booleans(),
    cache_mb=st.floats(min_value=0.0, max_value=16384.0),
    io_mbps=st.floats(min_value=20.0, max_value=2000.0),
    times=st.tuples(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
    ),
)
def test_a_pure_round_ignores_clock_and_service(
    name, specs, storage_aware, mixed, cache_mb, io_mbps, times
):
    jobs, effective, services = _round(specs)
    total = ResourceVector(
        gpus=12.0, cache_mb=cache_mb, remote_io_mbps=io_mbps
    )
    # Two schedulers, so the second round is solved, not reused.
    first = _solve(
        _scheduler(name, storage_aware, mixed),
        jobs,
        total,
        effective,
        times[0],
        services[0],
    )
    scheduler = _scheduler(name, storage_aware, mixed)
    second = _solve(scheduler, jobs, total, effective, times[1], services[1])
    assert first == second
    # A repeated round on the same scheduler is reused, and publishes
    # what the solve did.
    third = _solve(scheduler, jobs, total, effective, times[0], services[0])
    assert third == second


def test_las_round_moves_with_attained_service():
    """Same jobs, totals and effective bytes; only service differs."""
    assert not POLICY_FACTORIES["las"].pure_round
    jobs, effective, _ = _round(
        [(4, 100.0, 2048.0, 0, 0.5, 0.0, 0.0)] * 2
    )
    total = ResourceVector(gpus=4.0, cache_mb=1024.0, remote_io_mbps=200.0)
    scheduler = _scheduler("las", storage_aware=True, mixed=False)
    first = _solve(
        scheduler, jobs, total, effective, 0.0, {"job-0": 10.0, "job-1": 0.0}
    )
    second = _solve(
        scheduler, jobs, total, effective, 0.0, {"job-0": 0.0, "job-1": 10.0}
    )
    assert first != second
    # Only one 4-GPU job fits: the least-served one runs.
    assert first[0] == (("job-1", 4),)
    assert second[0] == (("job-0", 4),)


def _counting(scheduler):
    """Count the policy's solves on ``scheduler``."""
    calls = []
    solve = scheduler.policy.schedule

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    scheduler.policy.schedule = counted
    return calls


def test_a_repeated_round_hands_back_the_allocation_in_force():
    jobs, effective, _ = _round(
        [(2, 100.0, 2048.0, 0, 0.5, 0.0, 0.0)] * 3
    )
    total = ResourceVector(gpus=4.0, cache_mb=1024.0, remote_io_mbps=200.0)
    scheduler = _scheduler("fifo", storage_aware=True, mixed=False)
    calls = _counting(scheduler)
    first = scheduler.schedule(jobs, total, effective_cache_mb=effective)
    again = scheduler.schedule(
        list(jobs), total, now_s=50.0, effective_cache_mb=dict(effective)
    )
    assert again is first
    assert len(calls) == 1
    # Any moved input is solved afresh.
    moved = dict(effective, **{"job-0": 0.0})
    changed = [
        scheduler.schedule(jobs, total, effective_cache_mb=moved),
        scheduler.schedule(jobs[:2], total, effective_cache_mb=moved),
        scheduler.schedule(jobs[1::-1], total, effective_cache_mb=moved),
        scheduler.schedule(
            jobs[1::-1],
            ResourceVector(gpus=2.0, cache_mb=1024.0, remote_io_mbps=200.0),
            effective_cache_mb=moved,
        ),
        scheduler.schedule(jobs[1::-1], total),
    ]
    assert len(calls) == 6
    assert all(alloc is not first for alloc in changed)
    # So is the same round under another policy.
    scheduler.policy = make_policy("sjf")
    sjf_calls = _counting(scheduler)
    scheduler.schedule(jobs[1::-1], total)
    assert len(sjf_calls) == 1


def test_a_traced_repeat_is_reused_and_an_impure_round_solved():
    jobs, effective, _ = _round([(2, 100.0, 2048.0, 0, 0.5, 0.0, 0.0)])
    total = ResourceVector(gpus=4.0, cache_mb=1024.0, remote_io_mbps=200.0)
    traced = _scheduler("fifo", storage_aware=True, mixed=False)
    traced.tracer = Tracer()
    las = _scheduler("las", storage_aware=True, mixed=False)
    solves = {}
    for scheduler in (traced, las):
        calls = _counting(scheduler)
        for _ in range(2):
            scheduler.schedule(
                jobs,
                total,
                effective_cache_mb=effective,
                attained_service_s=lambda job: 0.0,
            )
        solves[scheduler.policy.name] = len(calls)
    assert solves == {"fifo": 1, "las": 2}
    # The reused round still reports its decision, equal but for the
    # wall-clock latency.
    first, second = (
        (e.ts_s, e.etype, e.job_id, e.fields) for e in traced.tracer.events
    )
    for decision in (first, second):
        assert decision[1] == "sched_decision"
        del decision[3]["latency_ms"]
    assert first == second


class _Scripted(SchedulingPolicy):
    """Answers each round from a script: grants in the given key order,
    plus the generations it publishes and assigns in the estimator."""

    name = "scripted"

    def __init__(self, answers):
        self._answers = list(answers)

    def schedule(self, jobs, total, ctx):
        gpus, cache, io, generations, assignments = self._answers.pop(0)
        allocation = Allocation()
        for job_id, grant in gpus:
            allocation.grant_gpus(job_id, grant)
        for name, grant in cache:
            allocation.grant_cache(name, grant)
        for job_id, grant in io:
            allocation.grant_remote_io(job_id, grant)
        ctx.gen_assignments.update(generations)
        if assignments:
            ctx.estimator.assignments.update(assignments)
        return allocation


GPUS = [("job-0", 2), ("job-1", 2)]
CACHE = [("d-0", 512.0), ("d-1", 256.0)]
IO = [("job-0", 10.0), ("job-1", 20.0)]


def _replay(answers, mixed):
    """Every round's allocation under a scripted policy."""
    jobs, _, _ = _round([(2, 100.0, 2048.0, 0, 0.5, 0.0, 0.0)] * 2)
    total = ResourceVector(gpus=4.0, cache_mb=1024.0, remote_io_mbps=200.0)
    scheduler = SiloDScheduler(_Scripted(answers))
    if mixed:
        scheduler.enable_heterogeneity(
            Cluster.build_mixed(
                [("K80", 1), ("V100", 1)],
                gpus_per_server=4,
                cache_per_server_mb=4096.0,
                remote_io_mbps=400.0,
            )
        )
    return [scheduler.schedule(jobs, total) for _ in answers]


def test_an_equal_allocation_in_another_key_order_is_solved_afresh():
    rounds = _replay(
        [
            (GPUS, CACHE, IO, {}, {}),
            (GPUS, CACHE, IO, {}, {}),
            (GPUS[::-1], CACHE, IO, {}, {}),
            (GPUS[::-1], CACHE[::-1], IO, {}, {}),
            (GPUS[::-1], CACHE[::-1], IO[::-1], {}, {}),
            (GPUS[::-1], CACHE[::-1], IO[::-1], {}, {}),
            (GPUS[::-1], CACHE[::-1], [("job-1", 20.0), ("job-0", 11.0)],
             {}, {}),
        ],
        mixed=False,
    )
    # Equal items in equal order: the allocation in force comes back.
    assert rounds[1] is rounds[0]
    assert rounds[5] is rounds[4]
    # Each reordered grant dict, or a moved value, is a new allocation.
    for before, after in zip(rounds[1:5], rounds[2:5]):
        assert after is not before
    assert rounds[6] is not rounds[5]


def test_an_equal_allocation_with_another_placement_is_solved_afresh():
    split = {"job-0": "V100", "job-1": "K80"}
    swapped = {"job-0": "K80", "job-1": "V100"}
    rounds = _replay(
        [
            (GPUS, CACHE, IO, split, split),
            (GPUS, CACHE, IO, split, split),
            # Other published generations, same estimator assignments.
            (GPUS, CACHE, IO, swapped, split),
            # Same published generations, other estimator assignments.
            (GPUS, CACHE, IO, swapped, swapped),
            (GPUS, CACHE, IO, swapped, swapped),
        ],
        mixed=True,
    )
    assert rounds[1] is rounds[0]
    assert rounds[2] is not rounds[1]
    assert rounds[3] is not rounds[2]
    assert rounds[4] is rounds[3]
