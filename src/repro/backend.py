"""The numpy/fallback switch every vectorized hot path consults.

Vectorized implementations (job-array state in ``sim/fluid.py``, the
array residency store in ``cache/residency.py``, the batched estimator
in ``core/estimator.py``) are selected at *construction* time. The
fluid simulator makes one choice per run with :func:`fleet_numpy`: a
fleet of fewer than :data:`VECTORIZE_MIN_GPUS` GPUs runs the
pure-Python fallback, where numpy's per-call dispatch costs more than
its arrays save, and a larger one runs numpy. The simulator hands that
choice to its job table, residency store, the scheduler's estimator and
the SiloD data manager. ``REPRO_NO_NUMPY=1`` forces the fallback
everywhere. The two paths are contractually bit-identical (see
``docs/PERFORMANCE.md``); the switch exists for three reasons:

* speed: each fleet runs the backend that is faster at its size;
* environments without numpy (the fallback keeps the repo importable);
* the equivalence and anchor tests, which run seeded traces through
  both backends with :func:`using_backend` and diff the decisions,
  event sequences and results.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

#: Environment variable forcing the pure-Python fallback when set to a
#: non-empty value other than ``0``.
NO_NUMPY_ENV = "REPRO_NO_NUMPY"

#: Backend labels accepted by :func:`using_backend`.
BACKEND_VECTORIZED = "vectorized"
BACKEND_FALLBACK = "fallback"

#: Fleets with at least this many GPUs run the fluid simulator on numpy,
#: smaller ones on the fallback. Capped below the crossover that
#: ``benchmarks/test_perf_backend_crossover.py`` measures (80-96 GPUs on
#: fluid_fifo-shaped cells, docs/PERFORMANCE.md) so that 64-GPU fleets,
#: perfbench's ``serve_online`` among them, keep numpy; that benchmark
#: checks the fallback is faster at every swept size below it.
VECTORIZE_MIN_GPUS = 64

#: The backend :func:`using_backend` forces, or ``None`` outside it.
_forced = None


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - exercised on numpy-less hosts
        return False
    return True


def numpy_enabled() -> bool:
    """Whether vectorized implementations should be used *right now*.

    Checked at object-construction time (never cached at import) so
    tests can flip backends per run.
    """
    flag = os.environ.get(NO_NUMPY_ENV, "").strip()
    if flag and flag != "0":
        return False
    return _numpy_available()


def fleet_numpy(total_gpus: int):
    """numpy for a fleet of ``total_gpus`` GPUs, or ``None`` (fallback).

    Fleets below :data:`VECTORIZE_MIN_GPUS` get the fallback unless
    :func:`using_backend` forces the vectorized backend.
    """
    if not numpy_enabled() or (
        total_gpus < VECTORIZE_MIN_GPUS and _forced != BACKEND_VECTORIZED
    ):
        return None
    return require_numpy()


def require_numpy():
    """Import and return numpy; raise if the fallback is forced.

    Vectorized classes call this in their constructor so a half-switched
    state (numpy objects alive while ``REPRO_NO_NUMPY=1``) fails loudly
    instead of mixing backends mid-run.
    """
    if not numpy_enabled():
        raise RuntimeError(
            "vectorized backend requested while REPRO_NO_NUMPY forces the "
            "pure-Python fallback (or numpy is unavailable)"
        )
    import numpy

    return numpy


@contextlib.contextmanager
def using_backend(backend: str) -> Iterator[None]:
    """Temporarily force a backend on every fleet size, restoring the
    environment on exit.

    Used by the equivalence and anchor tests to run one trace under
    both backends.
    """
    global _forced
    if backend not in (BACKEND_VECTORIZED, BACKEND_FALLBACK):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == BACKEND_VECTORIZED and not _numpy_available():
        raise RuntimeError("numpy unavailable; cannot force vectorized")
    before, forced_before = os.environ.get(NO_NUMPY_ENV), _forced
    _forced = backend
    if backend == BACKEND_FALLBACK:
        os.environ[NO_NUMPY_ENV] = "1"
    else:
        os.environ.pop(NO_NUMPY_ENV, None)
    try:
        yield
    finally:
        _forced = forced_before
        if before is None:
            os.environ.pop(NO_NUMPY_ENV, None)
        else:
            os.environ[NO_NUMPY_ENV] = before
