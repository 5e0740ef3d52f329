"""The numpy/fallback switch every vectorized hot path consults.

Vectorized implementations (job-array state in ``sim/fluid.py``, the
array residency store in ``cache/residency.py``, the batched estimator
in ``core/estimator.py``) are selected at *construction* time through
:func:`numpy_enabled`, so a single environment variable —
``REPRO_NO_NUMPY=1`` — flips an entire run onto the pure-Python
fallback. The two paths are contractually bit-identical (see
``docs/PERFORMANCE.md``); the switch exists for two reasons:

* environments without numpy (the fallback keeps the repo importable);
* the equivalence and anchor tests, which run seeded traces through
  both backends and diff the decisions, event sequences and results.
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
    """Temporarily force a backend, restoring the environment on exit.

    Used by the equivalence and anchor tests to run one trace under
    both backends.
    """
    if backend not in (BACKEND_VECTORIZED, BACKEND_FALLBACK):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == BACKEND_VECTORIZED and not _numpy_available():
        raise RuntimeError("numpy unavailable; cannot force vectorized")
    before = os.environ.get(NO_NUMPY_ENV)
    if backend == BACKEND_FALLBACK:
        os.environ[NO_NUMPY_ENV] = "1"
    else:
        os.environ.pop(NO_NUMPY_ENV, None)
    try:
        yield
    finally:
        if before is None:
            os.environ.pop(NO_NUMPY_ENV, None)
        else:
            os.environ[NO_NUMPY_ENV] = before
