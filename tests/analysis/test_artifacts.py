"""The versioned benchmark-artifact envelope (``repro.analysis.artifacts``)."""

import json

import pytest

from repro.analysis.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    load_benchmark_artifact,
    write_benchmark_artifact,
)


def test_benchmark_artifact_roundtrip(tmp_path):
    path = write_benchmark_artifact(
        "ext_sweep", "cells", {"cells": [{"gpus": 16}]}, tmp_path
    )
    assert path.name == "ext_sweep.json"
    raw = load_benchmark_artifact(path)
    assert raw["schema_version"] == ARTIFACT_SCHEMA_VERSION
    assert raw["kind"] == "cells"
    assert raw["data"] == {"cells": [{"gpus": 16}]}


def test_benchmark_artifact_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 0, "data": None}))
    with pytest.raises(ValueError, match="schema version"):
        load_benchmark_artifact(path)
