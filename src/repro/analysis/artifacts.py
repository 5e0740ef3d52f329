"""The versioned envelope every ``benchmarks/results/*.json`` shares.

:func:`write_benchmark_artifact` wraps a benchmark payload (a rendered
table, a list of sweep cells, ...) with a schema version, its name and
kind, and where and when it was measured, so every artifact under
``benchmarks/results/`` is self-describing and diffable across
revisions.
"""

from __future__ import annotations

import datetime
import json
import platform
import sys
from pathlib import Path
from typing import Dict

#: Version of the benchmark-artifact envelope.
ARTIFACT_SCHEMA_VERSION = 1


def host_fingerprint() -> Dict[str, str]:
    """Where an artifact was measured (context for cross-machine diffs)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy-less hosts
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": numpy_version,
    }


def utc_now_iso() -> str:
    """Current UTC time, ISO-8601 with seconds precision."""
    # Wall-clock by design: artifacts are stamped with real measurement
    # time; it never feeds back into simulation.
    # lint: disable=DET003
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def write_benchmark_artifact(name: str, kind: str, data, directory) -> Path:
    """Persist ``data`` in the envelope as ``<directory>/<name>.json``.

    ``kind`` names the payload shape (``"table"`` for rendered report
    text, ``"cells"`` for sweep-cell lists, ...); ``data`` must be
    JSON-serialisable.
    """
    envelope = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "name": name,
        "kind": kind,
        "created_utc": utc_now_iso(),
        "host": host_fingerprint(),
        "data": data,
    }
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(envelope, indent=2) + "\n")
    return path


def load_benchmark_artifact(path) -> dict:
    """Load and validate one enveloped benchmark artifact."""
    raw = json.loads(Path(path).read_text())
    if raw.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: artifact schema version "
            f"{raw.get('schema_version')!r} is not the supported "
            f"{ARTIFACT_SCHEMA_VERSION}"
        )
    return raw
