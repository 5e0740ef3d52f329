"""Generation pool capacity: no het round grants a pool more GPUs than
it has.

The joint solver checks every generation pool, but
``GavelPolicy._distribute_slack`` hands out free GPUs against the
cluster total only, so a heterogeneous round can overfill a pool. This
is ROADMAP item 9, a known defect: the test is a strict ``xfail`` until
the slack pass spends against each job's pool, a re-pin of its own. The
explicit example is a known overfill for both policies.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator
from repro.core.perf_model import default_speedup_table
from repro.core.policies.base import ScheduleContext
from repro.core.policies.het import HetMaxMinPolicy, HetMaxThroughputPolicy
from repro.core.resources import ResourceVector

POOLS = ("K80", "P100", "V100")

job_spec = st.tuples(
    st.integers(min_value=1, max_value=3),  # num_gpus
    st.floats(min_value=20.0, max_value=400.0),  # ideal_throughput_mbps
    st.floats(min_value=512.0, max_value=8192.0),  # dataset size_mb
    st.integers(min_value=0, max_value=4),  # dataset index (shared)
)
fleet = st.fixed_dictionaries(
    {gen: st.integers(min_value=1, max_value=6) for gen in POOLS}
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 9: Gavel's slack pass overfills generation pools",
)
@pytest.mark.parametrize(
    "policy_cls", [HetMaxMinPolicy, HetMaxThroughputPolicy]
)
@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(job_spec, min_size=1, max_size=9),
    pools=fleet,
    cache_mb=st.floats(min_value=0.0, max_value=16384.0),
    io_mbps=st.floats(min_value=20.0, max_value=2000.0),
)
@example(
    specs=[(2, 100.0, 4096.0, 0), (2, 50.0, 4096.0, 1)],
    pools={"K80": 1, "P100": 1, "V100": 2},
    cache_mb=1024.0,
    io_mbps=500.0,
)
def test_no_generation_pool_is_overfilled(
    policy_cls, specs, pools, cache_mb, io_mbps
):
    # A dataset's size is its first job's; later jobs share it.
    sizes = {}
    for _, _, size_mb, k in specs:
        sizes.setdefault(k, size_mb)
    jobs = [
        Job(
            job_id=f"job-{i}",
            model="resnet50",
            dataset=Dataset(name=f"d-{k}", size_mb=sizes[k], num_items=100),
            num_gpus=num_gpus,
            ideal_throughput_mbps=ideal,
            total_work_mb=4 * sizes[k],
        )
        for i, (num_gpus, ideal, _, k) in enumerate(specs)
    ]
    total = ResourceVector(
        gpus=float(sum(pools.values())),
        cache_mb=cache_mb,
        remote_io_mbps=io_mbps,
    )
    ctx = ScheduleContext(
        estimator=HetSiloDPerfEstimator(speedups=default_speedup_table()),
        storage_aware=True,
        gpu_pools=pools,
    )
    allocation = policy_cls().schedule(jobs, total, ctx)
    granted = {gen: 0.0 for gen in pools}
    for job in jobs:
        granted[ctx.gen_assignments[job.job_id]] += allocation.gpus_of(
            job.job_id
        )
    for gen, capacity in pools.items():
        assert granted[gen] <= capacity * (1.0 + 1e-9), (gen, granted)
