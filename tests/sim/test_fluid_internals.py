"""White-box tests of the fluid simulator's cache dynamics and stepping.

These pin down the §6 semantics the integration tests rely on: random
eviction scales effectiveness proportionally, stale (unallocated) data is
reclaimed under pool pressure, and fills never exceed targets or the pool.
They also hold the next-event peek to reading, never filling, the event
times a step's advance stored in the job table.
"""

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.sim.fluid import FluidSimulator
from repro.sim.runner import make_system
from repro.workloads.models import make_job

GB = 1024.0


def make_sim(jobs=(), cache_gb=100.0, io=100.0):
    scheduler, cache_system = make_system("fifo", "silod")
    cluster = Cluster.build(2, 2, cache_gb * GB / 2, io)
    return FluidSimulator(cluster, scheduler, cache_system, list(jobs))


def job(job_id, d_gb=10.0):
    return Job(
        job_id=job_id,
        model="m",
        dataset=Dataset(f"d-{job_id}", d_gb * GB),
        num_gpus=1,
        ideal_throughput_mbps=50.0,
        total_work_mb=2 * d_gb * GB,
    )


def put_key(sim, key, size_mb, resident_mb, target_mb):
    """Seed one residency-store entry (backend-agnostic)."""
    sim._cache.ensure(key, size_mb)
    sim._cache.set_size_mb(key, size_mb)
    sim._cache.set_resident_mb(key, resident_mb)
    sim._cache.set_target_mb(key, target_mb)


class TestShrink:
    def test_random_eviction_scales_effectiveness(self):
        j = job("a")
        sim = make_sim([j])
        sim._active[j.job_id] = sim._new_state(j)
        put_key(
            sim, "d-a", size_mb=10.0 * GB, resident_mb=8.0 * GB,
            target_mb=8.0 * GB,
        )
        sim._effective["a"] = 6.0 * GB
        sim._shrink("d-a", 4.0 * GB)
        assert sim._cache.resident_mb("d-a") == pytest.approx(4.0 * GB)
        # Effectiveness halves with the resident bytes (random victims).
        assert sim._effective["a"] == pytest.approx(3.0 * GB)

    def test_shrink_to_zero(self):
        j = job("a")
        sim = make_sim([j])
        sim._active[j.job_id] = sim._new_state(j)
        put_key(sim, "d-a", size_mb=GB, resident_mb=GB, target_mb=GB)
        sim._effective["a"] = GB
        sim._shrink("d-a", 0.0)
        assert sim._cache.resident_mb("d-a") == 0.0
        assert sim._effective["a"] == 0.0


class TestReclaimOvershoot:
    def test_stale_keys_reclaimed_first(self):
        sim = make_sim(cache_gb=10.0)
        put_key(
            sim, "stale", size_mb=8.0 * GB, resident_mb=8.0 * GB,
            target_mb=0.0,
        )
        put_key(
            sim, "live", size_mb=6.0 * GB, resident_mb=6.0 * GB,
            target_mb=6.0 * GB,
        )
        sim._reclaim_overshoot()
        assert sim._cache.total_resident_mb() <= 10.0 * GB + 1e-6
        # The allocated key is untouched; the stale one paid.
        assert sim._cache.resident_mb("live") == pytest.approx(6.0 * GB)
        assert sim._cache.resident_mb("stale") == pytest.approx(4.0 * GB)

    def test_proportional_backstop_when_targets_oversubscribe(self):
        sim = make_sim(cache_gb=10.0)
        # A misbehaving cache system targeted 2x the pool.
        for name in ("a", "b"):
            put_key(
                sim, name, size_mb=10.0 * GB, resident_mb=10.0 * GB,
                target_mb=10.0 * GB,
            )
        sim._reclaim_overshoot()
        assert sim._cache.total_resident_mb() <= 10.0 * GB * (1 + 1e-6)

    def test_no_action_when_under_budget(self):
        sim = make_sim(cache_gb=10.0)
        put_key(sim, "a", size_mb=GB, resident_mb=GB, target_mb=GB)
        sim._reclaim_overshoot()
        assert sim._cache.resident_mb("a") == pytest.approx(GB)


class TestAttainedService:
    def test_attained_service_tracks_progress(self):
        j = job("a", d_gb=10.0)
        sim = make_sim([j])
        state = sim._active[j.job_id] = sim._new_state(j)
        # Consume 5 GB at f* (50 MB/s).
        sim._table.set_rates_bulk([state.row], [50.0], [0.0])
        sim._table.advance(5.0 * GB / 50.0, 5.0 * GB / 50.0)
        # 5 GB at 50 MB/s on 1 GPU -> 102.4 s of GPU service.
        assert sim._attained_service_s(j) == pytest.approx(
            5.0 * GB / 50.0
        )

    def test_unknown_job_has_zero_service(self):
        sim = make_sim()
        assert sim._attained_service_s(job("ghost")) == 0.0


def stepping_jobs():
    """Staggered arrivals on a shared and two private datasets, enough
    to queue, fill the cache, cross epochs and finish at different
    times."""
    shared = Dataset("d-shared", 6.0 * GB)
    jobs = []
    for i in range(6):
        dataset = shared if i % 3 else Dataset(f"d-own-{i}", 4.0 * GB)
        jobs.append(make_job(
            f"job-{i}", ("resnet50", "alexnet")[i % 2], dataset,
            num_gpus=1 + i % 2, num_epochs=3 + i % 3,
            submit_time_s=60.0 * i,
        ))
    return jobs


def drive(peeks, cancel_at_step=None):
    """Run a fresh stepping cell with ``peeks`` peeks before every step;
    returns its outcome record. Every peek must leave the table's
    stored event times exactly as the step left them, and those times
    must be bitwise what fresh sweeps give at the current clock."""
    sim = make_sim(stepping_jobs(), cache_gb=8.0)
    sim.begin()
    steps = reads = 0
    while True:
        if steps == cancel_at_step:
            assert sim.cancel_job(next(iter(sim._active)))
        table = sim._table
        stored = table.stored_next_times()
        if stored is not None and sim._active:
            reads += 1
            assert stored == (
                table.next_completion_time(sim.clock_s),
                table.next_epoch_boundary_time(sim.clock_s),
            )
        for _ in range(peeks):
            sim.next_event_time()
            assert table.stored_next_times() == stored
        if not sim.step():
            break
        steps += 1
    assert reads > 0  # the peek read stored times at least once
    result = sim.finish()
    return (
        result.end_time_s,
        [(r.job_id, r.finished, r.jct_s, r.finish_time_s)
         for r in result.records],
        sim.sched_rounds,
        sim.decision_rounds,
        sim.loop_events,
    )


class TestStoredNextTimes:
    def test_a_peek_never_fills_the_stored_times(self):
        sim = make_sim(stepping_jobs(), cache_gb=8.0)
        sim.begin()
        table = sim._table
        while table.stored_next_times() is None or len(sim._active) < 2:
            assert sim.step()
        # A table write (the cancel retires a row) drops them, and no
        # number of peeks brings them back; only a step does.
        assert sim.cancel_job(next(iter(sim._active)))
        for _ in range(5):
            assert sim.next_event_time() is not None
            assert table.stored_next_times() is None
        while table.stored_next_times() is None:
            assert sim.step()

    def test_a_step_leaves_the_stored_times_filled(self):
        # Whether or not the step wrote the table, the peeks after it
        # read stored times: the step sweeps after its own writes.
        sim = make_sim(stepping_jobs(), cache_gb=8.0)
        sim.begin()
        table = sim._table
        steps = 0
        while sim.step():
            steps += 1
            if sim._active:
                assert table.stored_next_times() == (
                    table.next_completion_time(sim.clock_s),
                    table.next_epoch_boundary_time(sim.clock_s),
                )
        assert steps > 0

    @pytest.mark.parametrize("cancel_at_step", [None, 7])
    def test_peeks_leave_the_outcome_unchanged(self, cancel_at_step):
        assert drive(4, cancel_at_step) == drive(0, cancel_at_step)
