"""Bit-identity of het-max-min's one-row-per-job round.

A mixed-fleet round builds each job's equal division, base compute
bound and IO bound once, and derives both normaliser maps from that
row: the assignment search's at the default generation, the joint
solve's at each job's assigned generation. The joint solver and the
slack pass read ``f*`` from ``ctx.gen_scores`` at the assigned
generation. Every such value must equal, by ``float.hex``, what
``equal_share`` and ``compute_bound`` give under an estimator holding
the matching assignments. On a homogeneous fleet the policy still
delegates to ``GavelPolicy`` unchanged.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator
from repro.core.perf_model import default_speedup_table
from repro.core.policies import gavel, het
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import GavelPolicy, equal_share
from repro.core.policies.het import HetMaxMinPolicy
from repro.core.resources import ResourceVector


def _estimator(assignments=None):
    estimator = HetSiloDPerfEstimator(speedups=default_speedup_table())
    estimator.assignments.update(assignments or {})
    return estimator


def _hex(values):
    return [float(v).hex() for v in values]


job_spec = st.tuples(
    st.integers(min_value=1, max_value=4),  # num_gpus
    st.floats(min_value=10.0, max_value=500.0),  # ideal_throughput_mbps
    st.floats(min_value=256.0, max_value=8192.0),  # dataset size_mb
    st.sampled_from([1.0, 0.5, 2.0, 1.37]),  # weight
    st.booleans(),  # regular
    st.integers(min_value=0, max_value=2),  # dataset (shared when equal)
)


def _jobs(specs):
    sizes = {}
    return [
        Job(
            job_id=f"job-{i}",
            model="resnet50",
            dataset=Dataset(
                name=f"d-{k}",
                size_mb=sizes.setdefault(k, size_mb),
                num_items=100,
            ),
            num_gpus=gpus,
            ideal_throughput_mbps=ideal,
            total_work_mb=4 * size_mb,
            weight=weight,
            regular=regular,
        )
        for i, (gpus, ideal, size_mb, weight, regular, k) in enumerate(specs)
    ]


def _total(pools, cache_mb, io_mbps):
    return ResourceVector(
        gpus=float(sum(pools.values())),
        cache_mb=cache_mb,
        remote_io_mbps=io_mbps,
    )


def _recording_round(monkeypatch, jobs, pools, total, storage_aware, eff):
    """Run one het-max-min round and record both normaliser maps, the
    joint solver's ``f*`` and the slack pass's ``f*``."""
    seen = {"assign": [], "joint": [], "solver": [], "slack": []}

    class RecordingScorer(het._AssignmentScorer):
        def __init__(self, jobs, pools, total, f_star, normalisers, *rest):
            seen["assign"].append(dict(normalisers))
            super().__init__(jobs, pools, total, f_star, normalisers, *rest)

    class RecordingRound(gavel._JointRound):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen["solver"].append(list(self.f_star))

    monkeypatch.setattr(het, "_AssignmentScorer", RecordingScorer)
    monkeypatch.setattr(gavel, "_JointRound", RecordingRound)
    policy = HetMaxMinPolicy()
    normalisers = policy._normalisers
    distribute_slack = policy._distribute_slack

    def recording_normalisers(*args):
        shares = normalisers(*args)
        seen["joint"].append(shares)
        return shares

    def recording_slack(*args):
        seen["slack"].append(list(args[-1]))
        return distribute_slack(*args)

    policy._normalisers = recording_normalisers
    policy._distribute_slack = recording_slack
    ctx = ScheduleContext(
        estimator=_estimator(),
        storage_aware=storage_aware,
        gpu_pools=pools,
        effective_cache_mb=eff,
    )
    policy.schedule(jobs, total, ctx)
    policy.last_assignment_ratio  # a greedy round builds its scorer here
    return seen, ctx


@settings(max_examples=80, deadline=None)
@given(
    specs=st.lists(job_spec, min_size=1, max_size=7),
    gens=st.sampled_from([
        ("K80", "V100"), ("V100", "A100"), ("K80", "P100", "V100"),
        ("P100", "A100", "H100"),
    ]),
    capacities=st.lists(
        st.integers(min_value=1, max_value=6), min_size=3, max_size=3
    ),
    cache_mb=st.floats(min_value=0.0, max_value=16384.0),
    io_mbps=st.floats(min_value=5.0, max_value=2000.0),
    storage_aware=st.booleans(),
    warm=st.booleans(),
)
def test_mixed_fleet_round_matches_equal_share_and_compute_bound(
    specs, gens, capacities, cache_mb, io_mbps, storage_aware,
    warm,
):
    jobs = _jobs(specs)
    pools = dict(zip(gens, capacities))
    total = _total(pools, cache_mb, io_mbps)
    eff = None if warm else {
        job.job_id: job.dataset.size_mb / 2 for job in jobs
    }
    with pytest.MonkeyPatch.context() as patch:
        seen, ctx = _recording_round(
            patch, jobs, pools, total, storage_aware, eff
        )
    n = len(jobs)

    # The search's map: every job at the default generation.
    fresh = _estimator()
    expected = {}
    for job in jobs:
        perf = equal_share(
            job, n, total, fresh, storage_aware, job.weight
        ).perf_mbps
        expected[job.job_id] = max(perf, 1e-12)
    assert len(seen["assign"]) == 1
    assert {k: v.hex() for k, v in seen["assign"][0].items()} == {
        k: v.hex() for k, v in expected.items()
    }

    # The joint solve's map and ``f*``: each job at its generation.
    assigned = _estimator(ctx.gen_assignments)
    assert set(ctx.gen_assignments) == {job.job_id for job in jobs}
    (shares,) = seen["joint"]
    for job in jobs:
        want = equal_share(
            job, n, total, assigned, storage_aware, job.weight
        )
        got = shares[job.job_id]
        assert _hex([got.gpus, got.cache_mb, got.remote_io_mbps,
                     got.perf_mbps]) == _hex([
            want.gpus, want.cache_mb, want.remote_io_mbps, want.perf_mbps
        ])
    f_star = _hex(assigned.compute_bound(j, j.num_gpus) for j in jobs)
    if storage_aware:
        assert [_hex(f) for f in seen["solver"]] == [f_star]
        assert [_hex(f) for f in seen["slack"]] == [f_star]
    else:
        assert seen["solver"] == seen["slack"] == []


def _allocation_hex(allocation):
    return {
        field: {k: v.hex() for k, v in getattr(allocation, field).items()}
        for field in ("gpus", "cache", "remote_io")
    }


@settings(max_examples=40, deadline=None)
@given(
    specs=st.lists(job_spec, min_size=1, max_size=6),
    fleet=st.sampled_from([None, {"V100": 8}, {"K80": 5}]),
    cache_mb=st.floats(min_value=0.0, max_value=16384.0),
    io_mbps=st.floats(min_value=5.0, max_value=2000.0),
    storage_aware=st.booleans(),
)
def test_homogeneous_fleet_delegates_unchanged(
    specs, fleet, cache_mb, io_mbps, storage_aware
):
    jobs = _jobs(specs)
    total = _total(fleet or {"V100": 8}, cache_mb, io_mbps)
    eff = {job.job_id: job.dataset.size_mb / 3 for job in jobs}
    results = []
    for policy in (HetMaxMinPolicy(), GavelPolicy()):
        ctx = ScheduleContext(
            estimator=_estimator(),
            storage_aware=storage_aware,
            gpu_pools=fleet,
            effective_cache_mb=eff,
        )
        shares = policy._normalisers(jobs, total, ctx)
        allocation = policy.schedule(jobs, total, ctx)
        results.append((
            _allocation_hex(allocation),
            {k: v.hex() for k, v in ctx.job_scores.items()},
            {k: v.perf_mbps.hex() for k, v in shares.items()},
        ))
    assert results[0] == results[1]
