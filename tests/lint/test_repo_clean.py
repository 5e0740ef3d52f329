"""The acceptance bar: the repo lints clean."""

import pytest

from repro.cli import main
from repro.lint import build_passes, default_target, lint_paths
from repro.lint.findings import RULES

pytestmark = pytest.mark.lint


def test_source_tree_lints_clean():
    """Every pass over every module of the library: zero findings."""
    findings = lint_paths([default_target()], build_passes())
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_strict_exits_zero(capsys):
    """``python -m repro lint`` over the package passes."""
    assert main(["lint"]) == 0
    assert "clean" in capsys.readouterr().out


def test_every_pass_rule_is_catalogued():
    """No pass can emit a rule id missing from the catalogue."""
    for lint_pass in build_passes():
        for rule in lint_pass.rules:
            assert rule in RULES, rule


def test_rule_prefixes_map_to_passes():
    """Catalogue ids (minus the engine's PAR001) trace to a pass."""
    prefixes = {
        rule[:3] for rule in RULES if not rule.startswith("PAR")
    }
    covered = {
        rule[:3]
        for lint_pass in build_passes()
        for rule in lint_pass.rules
    }
    assert prefixes == covered
