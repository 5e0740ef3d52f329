"""The ``REPRO_NO_NUMPY`` backend switch (``repro.perf.backend``)."""

import os

import pytest

from repro.perf import backend
from repro.perf.backend import (
    BACKEND_FALLBACK,
    BACKEND_VECTORIZED,
    NO_NUMPY_ENV,
    backend_name,
    numpy_enabled,
    require_numpy,
    using_backend,
)
from repro.sim.fluid import FluidSimulator
from repro.sim.runner import make_system
from tests.perf.test_equivalence import tiny_cluster, tiny_trace

pytestmark = pytest.mark.perf


def test_env_flag_forces_fallback(monkeypatch):
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    assert not numpy_enabled()
    assert backend_name() == BACKEND_FALLBACK


def test_zero_and_empty_flag_keep_numpy(monkeypatch):
    for value in ("", "0"):
        monkeypatch.setenv(NO_NUMPY_ENV, value)
        assert numpy_enabled()
        assert backend_name() == BACKEND_VECTORIZED


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
        assert backend_name() == BACKEND_FALLBACK
    assert NO_NUMPY_ENV not in os.environ
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    with using_backend(BACKEND_VECTORIZED):
        assert backend_name() == BACKEND_VECTORIZED
    assert os.environ[NO_NUMPY_ENV] == "1"


def test_using_backend_auto_is_a_noop(monkeypatch):
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    with using_backend(None):
        assert backend_name() == BACKEND_FALLBACK
    with using_backend("auto"):
        assert backend_name() == BACKEND_FALLBACK


def test_using_backend_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown backend"):
        with using_backend("simd"):
            pass


def _fluid_run_backend_checks(monkeypatch, num_jobs):
    """(backend checks during ``run``, loop events) for one fluid run."""
    calls = [0]
    available = backend._numpy_available

    def counting():
        calls[0] += 1
        return available()

    monkeypatch.setattr(backend, "_numpy_available", counting)
    scheduler, cache_system = make_system("fifo", "silod")
    sim = FluidSimulator(
        tiny_cluster(16),
        scheduler,
        cache_system,
        tiny_trace(5, num_jobs, 16),
    )
    before = calls[0]
    sim.run()
    return calls[0] - before, sim.loop_events


def test_fluid_run_resolves_the_backend_at_construction(monkeypatch):
    # The simulator, estimator and cache system pick their backend when
    # built; the event loop never re-reads the environment, so the
    # number of checks does not grow with the number of events.
    monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    small_checks, small_events = _fluid_run_backend_checks(monkeypatch, 12)
    large_checks, large_events = _fluid_run_backend_checks(monkeypatch, 48)
    assert large_events > 2 * small_events
    assert large_checks == small_checks == 0
