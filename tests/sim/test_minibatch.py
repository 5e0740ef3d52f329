"""Minibatch testbed emulator semantics."""

import random
from array import array

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.faults import FaultEvent
from repro.sim import minibatch
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system

GB = 1024.0


def small_cluster(cache_gb=60.0, io_mbps=40.0, gpus=4):
    return Cluster.build(1, gpus, cache_gb * GB, io_mbps)


def simple_job(job_id, d_gb=50.0, f_star=100.0, epochs=3.0, submit=0.0, gpus=1):
    return Job(
        job_id=job_id,
        model="test",
        dataset=Dataset(f"d-{job_id}", d_gb * GB),
        num_gpus=gpus,
        ideal_throughput_mbps=f_star,
        total_work_mb=epochs * d_gb * GB,
        submit_time_s=submit,
    )


def make_emulator(jobs, cluster=None, policy="fifo", cache="silod", **kwargs):
    scheduler, cache_system = make_system(policy, cache)
    return MinibatchEmulator(
        cluster or small_cluster(),
        scheduler,
        cache_system,
        jobs,
        item_size_mb=256.0,
        **kwargs,
    )


def run(jobs, **kwargs):
    return make_emulator(jobs, **kwargs).run()


def test_compute_bound_job_matches_ideal_duration():
    job = simple_job("a", d_gb=20.0, f_star=50.0, epochs=2.0)
    cluster = small_cluster(io_mbps=200.0)
    result = run([job], cluster=cluster)
    assert result.records[0].finish_time_s == pytest.approx(
        job.ideal_duration_s, rel=0.05
    )


def test_io_bound_then_cached_epochs():
    job = simple_job("a", d_gb=50.0, f_star=100.0, epochs=3.0)
    cluster = small_cluster(cache_gb=60.0, io_mbps=40.0)
    result = run([job], cluster=cluster)
    d = 50.0 * GB
    expected = d / 40.0 + 2 * d / 100.0
    assert result.records[0].finish_time_s == pytest.approx(expected, rel=0.06)


def test_lru_pool_thrashes_versus_uniform():
    """Same job, cache smaller than the dataset: Alluxio's LRU pool takes
    visibly longer than SiloD's uniform caching (the §7.1.1 thrashing)."""
    cluster = small_cluster(cache_gb=30.0, io_mbps=40.0)

    def fresh_job():
        return simple_job("a", d_gb=50.0, f_star=100.0, epochs=6.0)

    silod = run([fresh_job()], cluster=cluster, cache="silod")
    alluxio = run([fresh_job()], cluster=cluster, cache="alluxio")
    assert (
        alluxio.records[0].finish_time_s
        > silod.records[0].finish_time_s * 1.05
    )


def test_arrival_and_queueing():
    jobs = [
        simple_job("a", gpus=4, d_gb=10.0, epochs=1.0),
        simple_job("b", gpus=4, d_gb=10.0, epochs=1.0, submit=5.0),
    ]
    result = run(jobs, cluster=small_cluster(gpus=4, io_mbps=500.0))
    by_id = {r.job_id: r for r in result.records}
    assert by_id["b"].start_time_s >= by_id["a"].finish_time_s - 120.0


def test_max_time_cuts_off():
    job = simple_job("slow", d_gb=100.0, f_star=10.0, epochs=10.0)
    result = run([job], max_time_s=2000.0)
    assert result.records[0].finish_time_s is None


def test_duplicate_ids_rejected():
    scheduler, cache_system = make_system("fifo", "silod")
    with pytest.raises(ValueError):
        MinibatchEmulator(
            small_cluster(),
            scheduler,
            cache_system,
            [simple_job("x"), simple_job("x")],
        )


def test_timeline_reports_throughput():
    job = simple_job("a", d_gb=20.0, f_star=50.0, epochs=2.0)
    result = run([job], cluster=small_cluster(io_mbps=200.0))
    busy = [s for s in result.timeline if s.total_throughput_mbps > 0]
    assert busy
    for s in busy:
        assert s.total_throughput_mbps <= 60.0  # ~f* plus sampling noise


def test_completion_skips_the_final_reshuffle(monkeypatch):
    """A two-epoch job shuffles at first placement and at its one inner
    epoch boundary; the boundary on its last item needs no new order."""
    sizes = []
    original = minibatch._shuffle

    def spy(rng, x):
        sizes.append(len(x))
        original(rng, x)

    monkeypatch.setattr(minibatch, "_shuffle", spy)
    job = simple_job("a", d_gb=20.0, f_star=50.0, epochs=2.0)
    result = run([job], cluster=small_cluster(io_mbps=200.0))
    assert sizes == [80, 80]
    # Recorded while the completion boundary still reshuffled.
    assert repr(result.records[0].jct_s) == "824.3200000000006"


def stepped(jobs, **kwargs):
    """An armed emulator for driving one decision interval at a time."""
    emulator = make_emulator(jobs, **kwargs)
    emulator.begin()
    return emulator


def test_order_lives_from_first_placement_to_finish():
    jobs = [
        simple_job("a", gpus=4, d_gb=20.0, epochs=1.0),
        simple_job("b", gpus=4, d_gb=20.0, epochs=1.0, submit=5.0),
    ]
    emulator = stepped(jobs)
    emulator.step()  # admits and places a
    emulator.step()  # admits b behind it
    a, b = emulator._active["a"], emulator._active["b"]
    assert b.start_time_s is None
    assert b.order is None
    # The first admission of seed 0 draws from Random(1).
    expected = list(range(a.epoch_items))
    random.Random(1).shuffle(expected)
    assert isinstance(a.order, array)
    assert a.order.typecode == "I"
    assert a.order.tolist() == expected
    while emulator.step():
        pass
    emulator.finish()
    assert [rt.job.job_id for rt in emulator._finished] == ["a", "b"]
    assert all(rt.order is None for rt in emulator._finished)


def test_cancelled_job_drops_its_order():
    emulator = stepped([simple_job("a", d_gb=20.0, epochs=2.0)])
    emulator.step()
    rt = emulator._active["a"]
    assert rt.order is not None
    assert emulator.cancel_job("a")
    assert rt.order is None


def test_preemption_replays_the_same_order():
    faults = [
        FaultEvent(120.0, "job_preempt", target="a"),
        FaultEvent(240.0, "job_restart", target="a"),
    ]
    emulator = stepped(
        [simple_job("a", d_gb=20.0, f_star=50.0, epochs=2.0)], faults=faults
    )
    emulator.step()
    emulator.step()
    rt = emulator._active["a"]
    assert 0 < rt.epoch_pos < rt.epoch_items
    before = rt.order.tolist()
    emulator.step()  # the preemption lands and rolls the epoch back
    assert rt.epoch_pos == 0
    assert rt.epochs_done == 0
    assert rt.order.tolist() == before
    emulator.step()
    emulator.step()  # restarted: reads the epoch from its start again
    assert rt.epoch_pos > 0
    assert rt.order.tolist() == before


@pytest.mark.parametrize("cache", ["silod", "alluxio"])
def test_item_caches_hold_what_their_arena_needs(cache):
    """Per-key uniform caches hold bare indices; the shared LRU pool,
    one arena for every key, holds ``(key, index)``."""
    jobs = [
        simple_job("a", d_gb=20.0, epochs=2.0),
        simple_job("b", d_gb=10.0, epochs=2.0),
    ]
    emulator = stepped(jobs, cache=cache)
    for _ in range(5):
        emulator.step()
    if cache == "alluxio":
        items = emulator._lru_pool.snapshot()
        assert items
        assert {key for key, _ in items} == {"d-a", "d-b"}
        assert all(type(i) is int for _, i in items)
    else:
        assert set(emulator._uniform_caches) == {"d-a", "d-b"}
        for key_cache in emulator._uniform_caches.values():
            items = key_cache.snapshot()
            assert items
            assert all(type(i) is int for i in items)
