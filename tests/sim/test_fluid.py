"""Fluid simulator semantics."""

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.core.policies.fifo import FifoPolicy
from repro.core.silod import SiloDScheduler
from repro.sim.fluid import FluidSimulator
from repro.sim.runner import make_system
from repro.workloads.models import make_job

GB = 1024.0


def small_cluster(cache_gb=100.0, io_mbps=100.0, gpus=4):
    return Cluster.build(
        num_servers=1,
        gpus_per_server=gpus,
        cache_per_server_mb=cache_gb * GB,
        remote_io_mbps=io_mbps,
    )


def simple_job(job_id, d_gb=50.0, f_star=100.0, epochs=4.0, submit=0.0, gpus=1):
    from repro.cluster.job import Job

    return Job(
        job_id=job_id,
        model="test",
        dataset=Dataset(f"d-{job_id}", d_gb * GB),
        num_gpus=gpus,
        ideal_throughput_mbps=f_star,
        total_work_mb=epochs * d_gb * GB,
        submit_time_s=submit,
    )


def run(jobs, cluster=None, policy="fifo", cache="silod", **kwargs):
    scheduler, cache_system = make_system(policy, cache)
    sim = FluidSimulator(
        cluster or small_cluster(), scheduler, cache_system, jobs, **kwargs
    )
    return sim.run()


def test_single_compute_bound_job_runs_at_ideal():
    # IO 100 >= f* 100 never bottlenecks even uncached... except nothing
    # else competes, so JCT equals ideal duration.
    job = simple_job("a", d_gb=10.0, f_star=50.0, epochs=2.0)
    result = run([job])
    rec = result.records[0]
    assert rec.finish_time_s == pytest.approx(job.ideal_duration_s, rel=0.01)


def test_io_bound_job_slows_to_bandwidth_then_speeds_up_with_cache():
    # f* 100 vs 40 MB/s egress; dataset fits in cache entirely.
    job = simple_job("a", d_gb=50.0, f_star=100.0, epochs=4.0)
    cluster = small_cluster(cache_gb=60.0, io_mbps=40.0)
    result = run([job], cluster=cluster)
    # Epoch 1 at 40 MB/s, epochs 2-4 at 100 MB/s (fully cached).
    d = 50.0 * GB
    expected = d / 40.0 + 3 * d / 100.0
    assert result.records[0].finish_time_s == pytest.approx(expected, rel=0.02)


def test_delayed_effectiveness_first_epoch_has_no_hits():
    job = simple_job("a", d_gb=50.0, f_star=100.0, epochs=2.0)
    cluster = small_cluster(cache_gb=60.0, io_mbps=40.0)
    result = run([job], cluster=cluster, sample_interval_s=60.0)
    d = 50.0 * GB
    first_epoch_end = d / 40.0
    for s in result.timeline:
        if 0 < s.time_s < first_epoch_end - 60:
            assert s.total_throughput_mbps == pytest.approx(40.0, rel=0.05)


def test_jobs_queue_when_gpus_are_scarce():
    jobs = [simple_job(f"j{i}", gpus=4, d_gb=5.0, epochs=1.0) for i in range(2)]
    result = run(jobs, cluster=small_cluster(gpus=4, io_mbps=500.0))
    finishes = sorted(r.finish_time_s for r in result.records)
    # Strictly serialized: second job finishes roughly twice as late.
    assert finishes[1] >= finishes[0] * 1.9


def test_arrivals_are_respected():
    jobs = [
        simple_job("early", submit=0.0, d_gb=5.0, epochs=1.0),
        simple_job("late", submit=10_000.0, d_gb=5.0, epochs=1.0),
    ]
    result = run(jobs, cluster=small_cluster(io_mbps=500.0))
    by_id = {r.job_id: r for r in result.records}
    assert by_id["late"].start_time_s >= 10_000.0


def test_max_time_leaves_jobs_unfinished():
    job = simple_job("slow", d_gb=100.0, f_star=10.0, epochs=10.0)
    result = run([job], max_time_s=1000.0)
    assert result.records[0].finish_time_s is None
    assert result.end_time_s <= 1000.0 + 1e-6


def test_duplicate_job_ids_rejected():
    jobs = [simple_job("same"), simple_job("same")]
    scheduler, cache_system = make_system("fifo", "silod")
    with pytest.raises(ValueError):
        FluidSimulator(small_cluster(), scheduler, cache_system, jobs)


def test_dataset_sharing_jobs_share_cache():
    shared = Dataset("shared", 50.0 * GB)
    jobs = [
        make_job("a", "resnet50", shared, num_epochs=3.0),
        make_job("b", "resnet50", shared, num_epochs=3.0, submit_time_s=1.0),
    ]
    cluster = small_cluster(cache_gb=60.0, io_mbps=60.0)
    result = run(jobs, cluster=cluster)
    # Both at f*=114 against 60 MB/s egress: without sharing, steady state
    # would need 114*2*(1-c/d) with c=30GB each -> 91 MB/s > 60. With
    # sharing, the single 50 GB copy is fully cached and both run at f*.
    d = 50.0 * GB
    for rec in result.records:
        # Total work 3 epochs; first epoch throttled, rest at full speed.
        assert rec.finish_time_s < d / 30.0 + 2.5 * d / 114.0


def test_fairness_timeline_is_recorded():
    jobs = [simple_job("a", epochs=2.0), simple_job("b", epochs=2.0)]
    result = run(jobs, policy="gavel")
    assert any(
        s.running_jobs > 0 and s.fairness_ratio > 0 for s in result.timeline
    )


def test_effective_cache_tracked_in_timeline():
    job = simple_job("a", d_gb=50.0, f_star=100.0, epochs=3.0)
    cluster = small_cluster(cache_gb=60.0, io_mbps=40.0)
    result = run([job], cluster=cluster, sample_interval_s=120.0)
    assert any(s.resident_cache_mb > 0 for s in result.timeline)
    assert any(s.effective_cache_mb > 0 for s in result.timeline)
    # Effectiveness never exceeds residency.
    for s in result.timeline:
        assert s.effective_cache_mb <= s.resident_cache_mb + 1e-6


def test_scheduler_name_and_cache_name_propagate():
    result = run([simple_job("a", d_gb=5.0, epochs=1.0)], cache="alluxio")
    assert result.scheduler_name == "fifo"
    assert result.cache_name == "alluxio"


def test_one_pool_generation_answers_without_the_mirror():
    """A one-pool fleet writes no generation column: every admitted job
    (queued, running or finished) reports the reference generation and
    unknown ids report ``None``."""
    jobs = [
        simple_job("a", d_gb=10.0, epochs=1.0, gpus=4),
        simple_job("b", d_gb=10.0, epochs=1.0, gpus=4),
        simple_job("late", d_gb=10.0, epochs=1.0, submit=1e6),
    ]
    scheduler, cache_system = make_system("fifo", "silod")
    sim = FluidSimulator(small_cluster(), scheduler, cache_system, jobs)
    calls = []
    set_generation = sim._table.set_generation

    def counting(row, name):
        calls.append((row, name))
        set_generation(row, name)

    sim._table.set_generation = counting
    sim.begin()
    sim.step()  # admits a and b; only a fits on the four GPUs
    assert scheduler.gpu_pools is None
    assert sim.generation_of("a") == "V100"
    assert sim.generation_of("b") == "V100"
    assert sim.generation_of("late") is None
    assert sim.generation_of("nope") is None
    while sim.step():
        pass
    sim.finish()
    assert sim.generation_of("a") == "V100"
    assert sim.generation_of("late") == "V100"
    assert calls == []


def test_mixed_fleet_generation_mirror_still_written():
    cluster = Cluster.build_mixed(
        (("K80", 1), ("V100", 1)),
        gpus_per_server=4,
        cache_per_server_mb=100.0 * GB,
        remote_io_mbps=100.0,
    )
    jobs = [simple_job(f"j{i}", d_gb=10.0, epochs=1.0) for i in range(3)]
    scheduler, cache_system = make_system("het-max-min", "silod")
    sim = FluidSimulator(cluster, scheduler, cache_system, jobs)
    sim.begin()
    sim.step()
    assert scheduler.gpu_pools is not None
    placed = {sim.generation_of(j.job_id) for j in jobs}
    assert placed <= {"K80", "V100"}
    assert placed == {
        scheduler.last_generations.get(j.job_id, "V100") for j in jobs
    }
