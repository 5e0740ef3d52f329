"""Library micro-benchmarks: scheduler decision latency.

A co-designed scheduler re-solves its allocation every scheduling round;
the paper's 2,500-LoC production scheduler does this for hundreds of
jobs. These benches keep our solvers honest: one Gavel joint solve over
500 jobs must stay well inside a 0.25 s bound (tens of milliseconds),
and the supporting primitives (waterfill, greedy cache, SJF scoring)
well below that.
"""

import numpy as np

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies import io_share
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import GavelPolicy
from repro.core.policies.greedy import greedy_cache_allocation
from repro.core.policies.sjf import SjfPolicy
from repro.core.resources import ResourceVector

GB = 1024.0


def synthetic_jobs(n, seed=0):
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n):
        jobs.append(
            Job(
                job_id=f"p{i}",
                model="m",
                dataset=Dataset(
                    f"d-{i}", float(rng.uniform(50, 2000)) * GB
                ),
                num_gpus=int(rng.choice([1, 2, 4, 8])),
                ideal_throughput_mbps=float(rng.uniform(2, 200)),
                total_work_mb=float(rng.uniform(1e5, 1e7)),
            )
        )
    return jobs


TOTAL = ResourceVector(gpus=400, cache_mb=144_000 * GB, remote_io_mbps=4000.0)
CTX = ScheduleContext(estimator=SiloDPerfEstimator())


def assert_mean_below(benchmark, bound_s):
    """Every timed run keeps its latency bound. Under
    ``--benchmark-disable`` the function ran once, untimed, and there
    are no stats to check."""
    if not benchmark.disabled:
        assert benchmark.stats["mean"] < bound_s


def test_perf_gavel_joint_solve_500_jobs(benchmark):
    jobs = synthetic_jobs(500)
    policy = GavelPolicy()
    alloc = benchmark(policy.schedule, jobs, TOTAL, CTX)
    assert alloc.total().gpus <= TOTAL.gpus + 1e-6
    # One solve must be fast enough for sub-minute scheduling rounds.
    assert_mean_below(benchmark, 0.25)


def test_perf_sjf_scoring_500_jobs(benchmark):
    jobs = synthetic_jobs(500)
    policy = SjfPolicy()
    alloc = benchmark(policy.schedule, jobs, TOTAL, CTX)
    assert alloc.gpus
    assert_mean_below(benchmark, 0.25)


def test_perf_waterfill_1000_jobs(benchmark):
    rng = np.random.default_rng(1)
    demands = {f"j{i}": float(rng.uniform(0, 200)) for i in range(1000)}
    grants = benchmark(io_share.max_min_waterfill, demands, 4000.0)
    assert sum(grants.values()) <= 4000.0 + 1e-6
    assert_mean_below(benchmark, 0.05)


def test_perf_greedy_cache_1000_jobs(benchmark):
    jobs = synthetic_jobs(1000, seed=2)
    allocation = benchmark(greedy_cache_allocation, jobs, 144_000 * GB)
    assert allocation
    assert_mean_below(benchmark, 0.05)
