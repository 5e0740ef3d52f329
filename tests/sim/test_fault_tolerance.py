"""Fault injection: §6's fault-tolerance claims, observed end to end.

The paper argues SiloD recovers from data-manager crashes with no lasting
damage (allocations live in pod annotations, cache content on local
disk), while losing a server costs the cache shards it held. Both are
fault schedules (``repro.faults``): a ``data_manager_restart`` event,
and a ``cache_loss``/``cache_recover`` pair of one server's cache share.
They are injected into the fluid simulator and the minibatch emulator
and their JCT impact measured.
"""

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.sim.fluid import FluidSimulator
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system
from tests.faults.conftest import data_manager_restarts, server_losses

GB = 1024.0


def cluster(servers=4):
    return Cluster.build(servers, 1, 60.0 * GB, 50.0)


def jobs():
    return [
        Job(
            job_id=f"j{i}",
            model="m",
            dataset=Dataset(f"d-{i}", 40.0 * GB),
            num_gpus=1,
            ideal_throughput_mbps=80.0,
            total_work_mb=4 * 40.0 * GB,
        )
        for i in range(2)
    ]


def run(cache="silod", faults=(), simulator=FluidSimulator):
    scheduler, cache_system = make_system("fifo", cache)
    return simulator(
        cluster(), scheduler, cache_system, jobs(), faults=faults
    ).run()


def test_data_manager_crash_is_harmless_for_silod():
    """§6: crash recovery reconstructs state; JCT is unaffected."""
    clean = run()
    crashed = run(faults=data_manager_restarts(5_000.0, 20_000.0))
    assert crashed.average_jct_s() == pytest.approx(
        clean.average_jct_s(), rel=0.01
    )


def test_data_manager_crash_is_harmless_for_silod_in_the_emulator():
    clean = run(simulator=MinibatchEmulator)
    crashed = run(
        faults=data_manager_restarts(5_000.0, 20_000.0),
        simulator=MinibatchEmulator,
    )
    assert crashed.average_jct_s() == pytest.approx(
        clean.average_jct_s(), rel=0.01
    )


def test_data_manager_crash_resets_quiver_profiles():
    """Quiver's in-memory profiles die with the crash (its selections can
    churn afterwards); the run still completes."""
    crashed = run(cache="quiver", faults=data_manager_restarts(5_000.0))
    assert len(crashed.finished_records()) == 2


def run_small(cache="silod", loss_times_s=(), simulator=FluidSimulator):
    # Two servers: losing one evicts half of every dataset, enough to
    # push the jobs back into the IO bottleneck until refilled.
    fleet = cluster(servers=2)
    scheduler, cache_system = make_system("fifo", cache)
    return simulator(
        fleet,
        scheduler,
        cache_system,
        jobs(),
        faults=server_losses(fleet, *loss_times_s),
    ).run()


def test_server_loss_costs_cached_data():
    """Losing 1 of 2 servers evicts half the resident bytes after warmup:
    jobs must re-fetch, so JCT degrades — but boundedly."""
    clean = run_small()
    # Inject after the first epochs (~1650 s) so there is state to lose.
    lossy = run_small(loss_times_s=[2_000.0])
    assert lossy.average_jct_s() > clean.average_jct_s() * 1.02
    # The loss is bounded: well under one full extra epoch per job.
    epoch_s = 40.0 * GB / 25.0
    assert lossy.average_jct_s() < clean.average_jct_s() + epoch_s


def test_server_loss_costs_cached_data_in_the_emulator():
    clean = run_small(simulator=MinibatchEmulator)
    lossy = run_small(loss_times_s=[2_000.0], simulator=MinibatchEmulator)
    assert lossy.average_jct_s() > clean.average_jct_s() * 1.02
    epoch_s = 40.0 * GB / 25.0
    assert lossy.average_jct_s() < clean.average_jct_s() + epoch_s


def test_multiple_server_losses_degrade_monotonically():
    one = run_small(loss_times_s=[2_000.0])
    two = run_small(loss_times_s=[2_000.0, 2_600.0])
    assert two.average_jct_s() >= one.average_jct_s() - 1.0
