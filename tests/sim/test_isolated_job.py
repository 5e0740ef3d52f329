"""One job alone in the minibatch emulator runs at the rate Eq. 4 gives.

Each case runs a single job on a one-server cluster sized to it,
through the item-level emulator under FIFO x SiloD. With cache and
egress to spare the job is compute-bound, so it must recover its
declared ``f*`` (§5.3: ``f*`` "can be profiled offline") and scale
with its GPU count (Table 2's near-linear data-parallel scaling). With
a fixed cache and egress throttle, its steady-state rate must land
within 3% of Eq. 4's prediction, the accuracy the paper reports for
SiloDPerf.
"""

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.core import perf_model
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system
from repro.workloads.models import make_job

GB = 1024.0


def run_alone(job, cache_mb, remote_io_mbps, item_size_mb=256.0):
    """Seconds from start to finish of ``job`` run alone."""
    cluster = Cluster.build(
        num_servers=1,
        gpus_per_server=job.num_gpus,
        cache_per_server_mb=cache_mb,
        remote_io_mbps=remote_io_mbps,
    )
    scheduler, cache_system = make_system("fifo", "silod")
    result = MinibatchEmulator(
        cluster, scheduler, cache_system, [job], item_size_mb=item_size_mb
    ).run()
    (record,) = result.records
    assert record.finished
    return record.finish_time_s - record.start_time_s


def measured_f_star(job):
    """The job's rate with twice its dataset in cache and 10x egress."""
    elapsed = run_alone(
        job,
        cache_mb=2 * job.dataset.size_mb,
        remote_io_mbps=max(10.0, 10.0 * job.ideal_throughput_mbps),
    )
    return job.total_work_mb / elapsed


def one_epoch(job_id, model, num_gpus=1):
    return make_job(
        job_id, model, Dataset(f"{job_id}-ds", 20.0 * GB),
        num_gpus=num_gpus, num_epochs=1,
    )


def test_one_gpu_resnet50_recovers_its_declared_f_star():
    job = one_epoch("p1", "resnet50")
    assert job.ideal_throughput_mbps == 114.0
    assert measured_f_star(job) == pytest.approx(114.0, rel=0.05)


def test_eight_gpu_resnet50_runs_at_eight_times_one_gpu():
    job = one_epoch("p8", "resnet50", num_gpus=8)
    assert measured_f_star(job) == pytest.approx(8 * 114.0, rel=0.05)


def test_bert_recovers_its_declared_f_star():
    assert measured_f_star(one_epoch("b", "bert")) == pytest.approx(
        2.0, rel=0.1
    )


def test_efficientnet_scales_linearly_to_four_gpus():
    one = measured_f_star(one_epoch("e1", "efficientnet-b1"))
    four = measured_f_star(one_epoch("e4", "efficientnet-b1", num_gpus=4))
    assert four == pytest.approx(4 * one, rel=0.1)


def eq4_check(cache_mb, remote_io_mbps):
    """Eq. 4's prediction and the emulated steady-state rate.

    The steady state leaves out the cold first epoch, which loads the
    whole dataset at ``min(b, f*)`` before the cache holds anything.
    """
    dataset = Dataset("d", 40.0 * GB, num_items=int(40 * GB / 256))
    job = Job(
        job_id="j",
        model="test",
        dataset=dataset,
        num_gpus=1,
        ideal_throughput_mbps=100.0,
        total_work_mb=4 * dataset.size_mb,
    )
    predicted = perf_model.silod_perf(
        job.ideal_throughput_mbps, remote_io_mbps, cache_mb, dataset.size_mb
    )
    first_epoch_s = dataset.size_mb / min(
        remote_io_mbps, job.ideal_throughput_mbps
    )
    steady_s = run_alone(job, cache_mb, remote_io_mbps) - first_epoch_s
    measured = (job.total_work_mb - dataset.size_mb) / steady_s
    return predicted, measured


def test_eq4_predicts_the_io_bound_rate_within_3_percent():
    predicted, measured = eq4_check(cache_mb=20.0 * GB, remote_io_mbps=40.0)
    assert predicted < 100.0
    assert predicted == pytest.approx(measured, rel=0.03)


def test_eq4_predicts_the_compute_bound_rate_within_3_percent():
    predicted, measured = eq4_check(cache_mb=50.0 * GB, remote_io_mbps=200.0)
    assert predicted == pytest.approx(100.0)
    assert predicted == pytest.approx(measured, rel=0.03)
