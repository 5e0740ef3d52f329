"""FaultInjector state machine: capacity math, clamping, victims."""

import pytest

from repro import units
from repro.core.resources import ResourceVector
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.obs.tracer import Tracer
from repro.sim.runner import SIMULATORS, make_system

from tests.faults.conftest import small_cluster, two_job_trace

pytestmark = pytest.mark.faults


def make_injector(events, servers=4, tracer=None):
    cluster = small_cluster(servers=servers)
    kwargs = {"tracer": tracer} if tracer is not None else {}
    return (
        FaultInjector(FaultSchedule(events), cluster, **kwargs),
        cluster,
    )


def base_vector(cluster) -> ResourceVector:
    return ResourceVector(
        gpus=float(cluster.total_gpus),
        cache_mb=cluster.total_cache_mb,
        remote_io_mbps=cluster.remote_io_mbps,
    )


def test_pop_due_and_next_time():
    injector, _ = make_injector(
        [
            FaultEvent(10.0, "server_crash"),
            FaultEvent(10.0, "bandwidth", magnitude=0.5),
            FaultEvent(20.0, "server_recover"),
        ]
    )
    assert injector.next_time() == 10.0
    assert injector.pop_due(5.0) == []
    due = injector.pop_due(10.0)
    assert [e.kind for e in due] == ["server_crash", "bandwidth"]
    assert injector.next_time() == 20.0
    assert [e.kind for e in injector.pop_due(1e9)] == ["server_recover"]
    assert injector.next_time() is None


def test_server_crash_effect_and_capacity():
    injector, cluster = make_injector([], servers=4)
    base = base_vector(cluster)
    event = FaultEvent(0.0, "server_crash", magnitude=1)
    effect = injector.apply(event, 0.0)
    # 1 of 4 servers: a quarter of the GPUs and of the cache pool.
    assert effect.preempt_gpus == pytest.approx(cluster.total_gpus / 4)
    assert effect.evict_fraction == pytest.approx(0.25)
    total = injector.effective_total(base)
    assert total.gpus == pytest.approx(base.gpus * 0.75)
    assert total.cache_mb == pytest.approx(base.cache_mb * 0.75)
    assert total.remote_io_mbps == pytest.approx(base.remote_io_mbps)


def test_server_crash_clamped_to_cluster_size():
    injector, cluster = make_injector([], servers=2)
    injector.apply(FaultEvent(0.0, "server_crash", magnitude=10), 0.0)
    assert injector.servers_down == 2
    total = injector.effective_total(base_vector(cluster))
    assert total.gpus == 0.0
    assert total.cache_mb == 0.0
    # Crashing again with everything down is a no-op.
    effect = injector.apply(FaultEvent(1.0, "server_crash"), 1.0)
    assert effect.preempt_gpus == 0.0
    assert effect.evict_fraction == 0.0


def test_server_recover_clamped_to_down_count():
    injector, cluster = make_injector([], servers=4)
    injector.apply(FaultEvent(0.0, "server_crash", magnitude=1), 0.0)
    injector.apply(FaultEvent(1.0, "server_recover", magnitude=5), 1.0)
    assert injector.servers_down == 0
    total = injector.effective_total(base_vector(cluster))
    assert total.gpus == pytest.approx(cluster.total_gpus)
    assert total.cache_mb == pytest.approx(cluster.total_cache_mb)
    # Recovering with nothing down is a no-op.
    injector.apply(FaultEvent(2.0, "server_recover"), 2.0)
    assert injector.servers_down == 0


def test_cache_loss_and_recover():
    injector, cluster = make_injector([], servers=4)
    lost = units.gb(10)
    effect = injector.apply(
        FaultEvent(0.0, "cache_loss", magnitude=lost), 0.0
    )
    assert effect.evict_fraction == pytest.approx(
        lost / cluster.total_cache_mb
    )
    assert effect.preempt_gpus == 0.0
    assert injector.current_cache_mb() == pytest.approx(
        cluster.total_cache_mb - lost
    )
    # Recovery is clamped to what was actually lost.
    injector.apply(
        FaultEvent(1.0, "cache_recover", magnitude=10 * lost), 1.0
    )
    assert injector.cache_lost_mb == 0.0
    assert injector.current_cache_mb() == pytest.approx(
        cluster.total_cache_mb
    )


def test_cache_loss_clamped_to_capacity():
    injector, cluster = make_injector([], servers=2)
    effect = injector.apply(
        FaultEvent(0.0, "cache_loss", magnitude=10 * cluster.total_cache_mb),
        0.0,
    )
    assert effect.evict_fraction == pytest.approx(1.0)
    assert injector.current_cache_mb() == 0.0


def test_bandwidth_is_multiplicative_on_base():
    injector, cluster = make_injector([])
    base = base_vector(cluster)
    injector.apply(FaultEvent(0.0, "bandwidth", magnitude=0.25), 0.0)
    assert injector.effective_total(base).remote_io_mbps == pytest.approx(
        base.remote_io_mbps * 0.25
    )
    # Restore is against the base limit, not the degraded one.
    injector.apply(FaultEvent(1.0, "bandwidth", magnitude=1.0), 1.0)
    assert injector.effective_total(base).remote_io_mbps == pytest.approx(
        base.remote_io_mbps
    )


def test_job_kinds_carry_target():
    injector, _ = make_injector([])
    effect = injector.apply(
        FaultEvent(0.0, "job_preempt", target="job-x"), 0.0
    )
    assert effect.job_id == "job-x"
    assert effect.evict_fraction == 0.0
    assert effect.preempt_gpus == 0.0
    effect = injector.apply(
        FaultEvent(1.0, "job_restart", target="job-x"), 1.0
    )
    assert effect.job_id == "job-x"


def test_data_manager_restart_only_resets_the_cache_system():
    injector, cluster = make_injector([])
    base = base_vector(cluster)
    effect = injector.apply(FaultEvent(0.0, "data_manager_restart"), 0.0)
    assert effect.reset_cache_system
    assert effect.evict_fraction == 0.0
    assert effect.preempt_gpus == 0.0
    assert injector.effective_total(base) == base
    other = injector.apply(FaultEvent(1.0, "bandwidth", magnitude=0.5), 1.0)
    assert not other.reset_cache_system


def test_server_disk_loss_pair_invalidates_one_share():
    injector, cluster = make_injector([], servers=4)
    base = base_vector(cluster)
    share = cluster.total_cache_mb / 4
    loss = injector.apply(FaultEvent(0.0, "cache_loss", magnitude=share), 0.0)
    injector.apply(FaultEvent(0.0, "cache_recover", magnitude=share), 0.0)
    assert loss.evict_fraction == 0.25
    assert injector.effective_total(base) == base
    # Under another outstanding loss the same pair takes that share of
    # the surviving pool: a third of it, with one server already down.
    injector.apply(FaultEvent(1.0, "server_crash"), 1.0)
    loss = injector.apply(FaultEvent(2.0, "cache_loss", magnitude=share), 2.0)
    assert loss.evict_fraction == pytest.approx(1 / 3)


@pytest.mark.parametrize("simulator", ["fluid", "minibatch"])
def test_data_manager_restart_resets_the_cache_system(simulator):
    scheduler, cache_system = make_system("fifo", "silod")
    resets = []
    reset = cache_system.reset

    def spy():
        resets.append(sim.clock_s)
        reset()

    cache_system.reset = spy
    sim = SIMULATORS[simulator](
        small_cluster(),
        scheduler,
        cache_system,
        two_job_trace(),
        faults=[FaultEvent(150.0, "data_manager_restart")],
    )
    result = sim.run()
    assert len(result.finished_records()) == 2
    # Once as the run begins, once when the restart lands (the emulator
    # applies it at the first interval boundary at or after 150 s).
    assert len(resets) == 2 and resets[0] == 0.0 and resets[1] >= 150.0


def test_select_victims_sorted_greedy():
    running = {"job-c": 2.0, "job-a": 1.0, "job-b": 4.0}
    # 1 GPU lost: first in sorted order suffices.
    assert FaultInjector.select_victims(running, 1.0) == ["job-a"]
    # 4 lost: job-a (1) does not cover it, job-b (4) tips it over.
    assert FaultInjector.select_victims(running, 4.0) == ["job-a", "job-b"]
    # More than everything: all running jobs die.
    assert FaultInjector.select_victims(running, 100.0) == [
        "job-a",
        "job-b",
        "job-c",
    ]
    # Idle jobs (0 GPUs) are never victims; no jobs, no victims.
    assert FaultInjector.select_victims({"job-z": 0.0}, 2.0) == []
    assert FaultInjector.select_victims({}, 2.0) == []


def test_injector_emits_fault_and_node_events():
    tracer = Tracer()
    injector, _ = make_injector([], servers=4, tracer=tracer)
    injector.apply(FaultEvent(5.0, "server_crash", magnitude=1), 5.0)
    injector.apply(FaultEvent(9.0, "server_recover", magnitude=1), 9.0)
    injector.apply(
        FaultEvent(12.0, "cache_loss", magnitude=units.gb(1)), 12.0
    )
    etypes = [e.etype for e in tracer.events]
    assert etypes == [
        "fault_inject",
        "node_down",
        "fault_inject",
        "node_up",
        "fault_inject",
        "node_down",
    ]
    down = tracer.events[1]
    assert down.fields["kind"] == "server"
    assert down.fields["gpus_lost"] == pytest.approx(4.0)
    assert tracer.metrics.counter("faults.injected") == 3
