"""SARIF output: emitter and validator agree on minimal 2.1.0."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import Finding, to_sarif, validate_min_sarif

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def sample_findings():
    return [
        Finding("repro/sim/fluid.py", 10, "DET003", "wall clock"),
        Finding("repro/core/silod.py", 3, "OBS004", "out of scope"),
    ]


class TestEmitter:
    def test_round_trip_validates(self):
        doc = to_sarif(sample_findings())
        assert validate_min_sarif(doc) == []
        # And survives JSON serialization unchanged.
        assert validate_min_sarif(json.loads(json.dumps(doc))) == []

    def test_one_result_per_finding_with_location(self):
        doc = to_sarif(sample_findings())
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["DET003", "OBS004"]
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "repro/sim/fluid.py"
        assert location["region"]["startLine"] == 10

    def test_rule_catalogue_covers_used_rules_only(self):
        doc = to_sarif(sample_findings())
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert sorted(r["id"] for r in rules) == ["DET003", "OBS004"]

    def test_empty_findings_still_validate(self):
        assert validate_min_sarif(to_sarif([])) == []


class TestValidator:
    def test_flags_missing_required_properties(self):
        doc = to_sarif(sample_findings())
        del doc["runs"][0]["results"][0]["ruleId"]
        doc["runs"][0]["results"][1]["locations"][0][
            "physicalLocation"
        ]["region"]["startLine"] = 0
        problems = validate_min_sarif(doc)
        assert any("ruleId" in p for p in problems)
        assert any("startLine" in p for p in problems)

    def test_flags_wrong_version_and_empty_runs(self):
        problems = validate_min_sarif({"version": "1.0", "runs": []})
        assert any("version" in p for p in problems)
        assert any("runs" in p for p in problems)


class TestCli:
    def test_sarif_format_output_validates(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n")
        code = main(
            [
                "lint",
                str(dirty),
                "--format",
                "sarif",
                "--baseline",
                str(tmp_path / "b.json"),
                "--no-cache",
            ]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert validate_min_sarif(doc) == []
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["DET003"]


def test_checked_in_ci_artifact_validates():
    """The SARIF log tools/ci.sh writes conforms and is clean."""
    artifact = REPO_ROOT / "benchmarks" / "results" / "lint.sarif"
    if not artifact.exists():
        pytest.skip("run tools/ci.sh to produce the artifact")
    doc = json.loads(artifact.read_text(encoding="utf-8"))
    assert validate_min_sarif(doc) == []
    assert doc["runs"][0]["results"] == []  # the tree lints clean.
