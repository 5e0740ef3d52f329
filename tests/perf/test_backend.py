"""The numeric backend switch (``repro.backend``): ``REPRO_NO_NUMPY``,
:func:`using_backend` and the fluid simulator's fleet-size choice."""

import os
from types import SimpleNamespace

import pytest

from repro import backend, units
from repro.backend import (
    BACKEND_FALLBACK,
    BACKEND_VECTORIZED,
    NO_NUMPY_ENV,
    VECTORIZE_MIN_GPUS,
    numpy_enabled,
    require_numpy,
    using_backend,
)
from repro.cluster.hardware import Cluster
from repro.core.estimator import HetSiloDPerfEstimator
from repro.sim.fluid import FluidSimulator
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system
from tests.perf.test_equivalence import tiny_cluster, tiny_trace

pytestmark = pytest.mark.perf


def test_env_flag_forces_fallback(monkeypatch):
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    assert not numpy_enabled()


def test_zero_and_empty_flag_keep_numpy(monkeypatch):
    for value in ("", "0"):
        monkeypatch.setenv(NO_NUMPY_ENV, value)
        assert numpy_enabled()


def test_require_numpy_raises_under_fallback(monkeypatch):
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    with pytest.raises(RuntimeError, match="fallback"):
        require_numpy()


def test_require_numpy_returns_module(monkeypatch):
    monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    np = require_numpy()
    assert hasattr(np, "fromiter")


def test_using_backend_restores_environment(monkeypatch):
    monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    with using_backend(BACKEND_FALLBACK):
        assert not numpy_enabled()
    assert NO_NUMPY_ENV not in os.environ
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    with using_backend(BACKEND_VECTORIZED):
        assert numpy_enabled()
    assert os.environ[NO_NUMPY_ENV] == "1"


def test_using_backend_without_numpy_leaves_environment(monkeypatch):
    # Forcing the vectorized backend on a host without numpy must fail
    # before the caller's REPRO_NO_NUMPY is touched.
    monkeypatch.setattr(backend, "_numpy_available", lambda: False)
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    with pytest.raises(RuntimeError, match="numpy unavailable"):
        with using_backend(BACKEND_VECTORIZED):
            pass
    assert os.environ[NO_NUMPY_ENV] == "1"


def test_using_backend_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown backend"):
        with using_backend("simd"):
            pass


class _CountingEnviron:
    """Stands in for ``os.environ`` inside :mod:`repro.backend` and counts
    the reads of ``REPRO_NO_NUMPY``: every backend check makes one, on
    either backend."""

    def __init__(self):
        self.reads = 0

    def get(self, key, default=None):
        self.reads += key == NO_NUMPY_ENV
        return os.environ.get(key, default)


def _fluid_run_backend_checks(monkeypatch, num_jobs):
    """(backend checks during ``run``, loop events, ran on numpy) for one
    fluid run on a 16-GPU fleet."""
    scheduler, cache_system = make_system("fifo", "silod")
    sim = FluidSimulator(
        tiny_cluster(16),
        scheduler,
        cache_system,
        tiny_trace(5, num_jobs, 16),
    )
    environ = _CountingEnviron()
    with monkeypatch.context() as patch:
        patch.setattr(backend, "os", SimpleNamespace(environ=environ))
        sim.run()
    return environ.reads, sim.loop_events, sim._np is not None


def test_fluid_run_resolves_the_backend_at_construction(monkeypatch):
    # The simulator picks one backend when built and hands it to the
    # estimator and the cache system; the event loop never re-reads the
    # environment, so no check happens however many events run. Each
    # backend is forced in turn so both event loops are guarded whatever
    # the fleet size picks.
    monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    for forced in (BACKEND_VECTORIZED, BACKEND_FALLBACK):
        with using_backend(forced):
            small = _fluid_run_backend_checks(monkeypatch, 12)
            large = _fluid_run_backend_checks(monkeypatch, 48)
        on_numpy = forced == BACKEND_VECTORIZED
        assert small[2] == large[2] == on_numpy, forced
        assert large[1] > 2 * small[1], forced
        assert large[0] == small[0] == 0, forced


def mixed_cluster(gpus: int) -> Cluster:
    """A V100 + K80 fleet of ``gpus`` GPUs (four per server)."""
    v100 = gpus // 8
    return Cluster.build_mixed(
        (("V100", v100), ("K80", gpus // 4 - v100)),
        gpus_per_server=4,
        cache_per_server_mb=4 * units.gb(92.0),
        remote_io_mbps=units.gbps(0.08 * gpus),
    )


def _on_numpy(sim) -> dict:
    """Whether each object the fleet choice reaches runs numpy."""
    return {
        "simulator": sim._np is not None,
        "job table": sim._table.backend == BACKEND_VECTORIZED,
        "residency store": sim._cache.backend == BACKEND_VECTORIZED,
        "estimator": sim.scheduler.estimator.numpy is not None,
        "data manager": sim.cache_system._np is not None,
    }


def _fluid(cluster, cls=FluidSimulator):
    scheduler, cache_system = make_system("fifo", "silod")
    jobs = tiny_trace(5, 8, cluster.total_gpus)
    return cls(cluster, scheduler, cache_system, jobs)


@pytest.mark.parametrize(
    "gpus, expected",
    [(VECTORIZE_MIN_GPUS - 4, False), (VECTORIZE_MIN_GPUS, True)],
    ids=["below", "at"],
)
@pytest.mark.parametrize("fleet", [tiny_cluster, mixed_cluster])
def test_fleet_size_picks_the_backend(monkeypatch, fleet, gpus, expected):
    # Below the threshold every object is on the fallback, at it every
    # one is on numpy; a mixed fleet's het estimator follows too.
    monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    sim = _fluid(fleet(gpus))
    assert sim.cluster.total_gpus == gpus
    assert set(_on_numpy(sim).values()) == {expected}
    assert isinstance(sim.scheduler.estimator, HetSiloDPerfEstimator) == (
        fleet is mixed_cluster
    )


def test_forced_vectorized_backend_reaches_a_small_fleet(monkeypatch):
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    with using_backend(BACKEND_VECTORIZED):
        small, mixed = _fluid(tiny_cluster(16)), _fluid(mixed_cluster(16))
    assert set(_on_numpy(small).values()) == {True}
    assert set(_on_numpy(mixed).values()) == {True}
    # Leaving the block restores the fleet-size choice.
    monkeypatch.delenv(NO_NUMPY_ENV)
    assert set(_on_numpy(_fluid(tiny_cluster(16))).values()) == {False}


def test_no_numpy_env_forces_the_fallback_on_a_large_fleet(monkeypatch):
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    for fleet in (tiny_cluster, mixed_cluster):
        assert set(_on_numpy(_fluid(fleet(400))).values()) == {False}


def test_minibatch_emulator_keeps_numpy_on_a_small_fleet(monkeypatch):
    monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    sim = _fluid(tiny_cluster(16), MinibatchEmulator)
    assert sim._np is not None
    assert sim.scheduler.estimator.numpy is not None
    assert sim.cache_system._np is not None


@pytest.mark.parametrize(
    "gpus", [VECTORIZE_MIN_GPUS - 4, VECTORIZE_MIN_GPUS], ids=["below", "at"]
)
def test_fleet_choice_matches_the_other_backend(monkeypatch, gpus):
    # One seeded cell each side of the threshold, run on the backend
    # the fleet picks and then forced onto the other: end time and
    # every JCT agree bit for bit, so default runs cover both sides.
    monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    jobs = tiny_trace(11, 40, gpus)

    def run():
        scheduler, cache_system = make_system("fifo", "silod")
        sim = FluidSimulator(
            tiny_cluster(gpus), scheduler, cache_system, jobs,
            reschedule_interval_s=1800.0, sample_interval_s=3600.0,
        )
        result = sim.run()
        jcts = [record.jct_s.hex() for record in result.records]
        return sim._np is not None, (result.end_time_s.hex(), jcts)

    chosen, default = run()
    assert chosen == (gpus >= VECTORIZE_MIN_GPUS)
    with using_backend(BACKEND_FALLBACK if chosen else BACKEND_VECTORIZED):
        forced, other = run()
    assert forced != chosen
    assert all(jct != "nan" for jct in default[1])
    assert default == other
