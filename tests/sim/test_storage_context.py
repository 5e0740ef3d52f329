"""The per-round storage context both simulators hand a cache system.

Each round a cache system gets one :class:`~repro.cache.base.StorageContext`
with two per-job columns: ``f_stars``, aligned with ``running_jobs``, and
the ``effective_mb`` map. A recording data manager checks, for every
context it receives and at the moment it receives it, that the column is
the estimator's compute bound under each job's GPU grant, bit for bit,
that the map is the simulator's own effectiveness state, and that the
running/queued split and the grants are the simulator's allocation.
"""

import pytest

from repro import units
from repro.cache.silod_cache import SiloDDataManager
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.sim.fluid import FluidSimulator
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system
from repro.workloads.models import make_job


class _Recording(SiloDDataManager):
    """The data manager, checking every context against its simulator."""

    def __init__(self):
        super().__init__()
        self.sim = None
        self.contexts = 0
        self.jobs_seen = 0

    def reallocate(self, ctx):
        self.contexts += 1
        self.jobs_seen += len(ctx.running_jobs)
        assert len(ctx.f_stars) == len(ctx.running_jobs)
        for job, f_star in zip(ctx.running_jobs, ctx.f_stars):
            expected = ctx.estimator.compute_bound(
                job, ctx.gpu_grants[job.job_id]
            )
            assert f_star.hex() == expected.hex()
        assert dict(ctx.effective_mb) == _effective_state(self.sim)
        _check_membership(ctx, self.sim)
        return super().reallocate(ctx)


def _check_membership(ctx, sim):
    """Running = active jobs with a positive grant, queued = the rest,
    both in admission order; the grants are the allocation's."""
    grants = sim._allocation.gpus
    active = [state.job for state in sim._active.values()]
    assert ctx.running_jobs == [
        job for job in active if grants.get(job.job_id, 0.0) > 0
    ]
    assert ctx.queued_jobs == [
        job for job in active if grants.get(job.job_id, 0.0) <= 0
    ]
    assert ctx.gpu_grants == dict(grants)


def _effective_state(sim):
    """The simulator's own job_id -> effective-bytes state."""
    if isinstance(sim, FluidSimulator):
        return dict(sim._effective)
    return {
        job_id: rt.effective_items * sim._item_size_mb
        for job_id, rt in sim._active.items()
    }


def _jobs():
    """Eight overlapping jobs on two shared datasets."""
    return [
        make_job(
            f"job-{i}",
            "resnet50",
            Dataset(name=f"d-{i % 2}", size_mb=units.gb(20 + 10 * (i % 2))),
            num_gpus=1 + i % 3,
            num_epochs=4,
            submit_time_s=120.0 * i,
        )
        for i in range(8)
    ]


def _simulate(simulator, policy):
    scheduler, _ = make_system(policy, "silod")
    manager = _Recording()
    cluster = Cluster.build(
        num_servers=2,
        gpus_per_server=4,
        cache_per_server_mb=units.gb(6),
        remote_io_mbps=units.gbps(1.6),
    )
    if simulator == "fluid":
        sim = FluidSimulator(
            cluster, scheduler, manager, _jobs(),
            reschedule_interval_s=600.0,
        )
    else:
        sim = MinibatchEmulator(
            cluster, scheduler, manager, _jobs(), item_size_mb=256.0,
            decision_interval_s=120.0,
        )
    manager.sim = sim
    result = sim.run()
    return manager, result


@pytest.mark.parametrize("policy", ["fifo", "gavel"])
@pytest.mark.parametrize("simulator", ["fluid", "minibatch"])
def test_every_context_carries_the_rounds_columns(simulator, policy):
    manager, result = _simulate(simulator, policy)
    assert all(r.finish_time_s is not None for r in result.records)
    # Every round was checked, and rounds had several jobs to check.
    assert manager.contexts > 0
    assert manager.jobs_seen > manager.contexts
