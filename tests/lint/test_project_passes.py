"""Whole-program lint over the fixture project.

Covers the two whole-program passes (``xuni``, ``obs-scope``), the
index, and the cross-module entropy chains the per-file determinism
rules report at their source.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import build_passes, lint_paths
from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.passes.obs_scope import ObsScopePass
from repro.lint.passes.xuni import CrossUnitsPass

pytestmark = pytest.mark.lint

PROJECT = Path(__file__).parent / "fixtures" / "project"


def lint_project(passes, **kwargs):
    return lint_paths(
        [PROJECT], passes, display_root=PROJECT, **kwargs
    )


def write_tree(tmp_path, sources):
    for name, text in sources.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


#: A minimal entropy chain in loose modules: a.helper reads the clock,
#: b.record emits a schema-valid event carrying it.
TAINT_SOURCE = (
    "import time\n"
    "\n"
    "def helper():\n"
    "    return time.time()\n"
)
TAINT_SINK = (
    "import a\n"
    "\n"
    "def record(tracer):\n"
    "    t = a.helper()\n"
    '    tracer.emit(0.0, "epoch_boundary", "j1", epoch=t)\n'
)

#: One XUNI001: MB plus seconds.
MIXED_UNITS = (
    "def total(size_mb, wait_s):\n"
    "    return size_mb + wait_s\n"
)


class TestCrossDeterminism:
    """An entropy source is reported where it is read, by DET00x.

    Where the value flows afterwards does not matter: a helper that
    reads the clock for an emission three calls away fires DET003 at
    the read, so no call chain escapes the per-file rules.
    """

    def test_two_hop_chain_reaches_the_sink(self):
        findings = lint_project(build_passes())
        det = [f for f in findings if f.rule.startswith("DET")]
        assert [(f.path, f.line, f.rule) for f in det] == [
            ("repro/clockmod.py", 7, "DET003")
        ]
        assert "time.time()" in det[0].message

    def test_one_hop_chain(self, tmp_path):
        write_tree(
            tmp_path, {"a.py": TAINT_SOURCE, "b.py": TAINT_SINK}
        )
        findings = lint_paths(
            [tmp_path], build_passes(), display_root=tmp_path
        )
        assert [(f.path, f.line, f.rule) for f in findings] == [
            ("a.py", 4, "DET003")
        ]

    def test_suppressed_source_is_sanctioned(self, tmp_path):
        sanctioned = TAINT_SOURCE.replace(
            "time.time()", "time.time()  # lint: disable=DET003"
        )
        write_tree(
            tmp_path, {"a.py": sanctioned, "b.py": TAINT_SINK}
        )
        findings = lint_paths(
            [tmp_path], build_passes(), display_root=tmp_path
        )
        assert findings == []


class TestCrossUnits:
    def test_fixture_findings_are_exactly_the_planted_bugs(self):
        findings = lint_project([CrossUnitsPass()])
        assert [f.path for f in findings] == ["repro/unituse.py"] * 4
        by_rule = sorted(f.rule for f in findings)
        assert by_rule == ["XUNI001", "XUNI001", "XUNI002", "XUNI002"]

    def test_return_unit_flows_into_suffix_mismatch(self):
        findings = lint_project([CrossUnitsPass()])
        xuni001 = [f for f in findings if f.rule == "XUNI001"]
        assert len(xuni001) == 2
        for finding in xuni001:
            assert "s value assigned" in finding.message
            assert "ms" in finding.message

    def test_min_max_comparison_keeps_the_unit(self, tmp_path):
        """``b if b < a else a`` carries min's unit (the fixture's
        ``capped_transfer_time``); a conditional whose test compares
        anything else still needs both branches to agree."""
        findings = lint_project([CrossUnitsPass()])
        assert ("repro/unituse.py", 25, "XUNI001") in {
            (f.path, f.line, f.rule) for f in findings
        }
        tree = write_tree(tmp_path, {"other.py": (
            "def pick(flag, wait_s, cap):\n"
            "    return wait_s if flag < cap else cap\n"
            "\n"
            "def use(flag):\n"
            "    delay_ms = pick(flag, 1.0, 2.0)\n"
            "    return delay_ms\n"
        )})
        assert lint_paths(
            [tree], [CrossUnitsPass()], display_root=tree
        ) == []

    def test_param_and_helper_bindings_are_checked(self):
        findings = lint_project([CrossUnitsPass()])
        messages = [
            f.message for f in findings if f.rule == "XUNI002"
        ]
        assert any("'size_mb'" in m and "expects MB" in m for m in messages)
        assert any("units.gb" in m and "expects GB" in m for m in messages)

    def test_cli_reruns_the_pass_on_an_unchanged_tree(
        self, tmp_path, monkeypatch, capsys
    ):
        """A second run reports what the passes find now, not last time."""
        tree = write_tree(tmp_path, {"mixed.py": MIXED_UNITS})
        argv = ["lint", str(tree), "--select", "XUNI"]
        assert main(argv) == 1
        assert "XUNI001" in capsys.readouterr().out
        monkeypatch.setattr(
            CrossUnitsPass, "run_project", lambda self, index: []
        )
        assert main(argv) == 0
        assert "clean" in capsys.readouterr().out


class TestCrossObsScope:
    def test_wrapper_call_from_outside_the_scope_is_flagged(self):
        findings = lint_project([ObsScopePass()])
        service = [f for f in findings if f.path == "repro/outside.py"]
        assert [(f.line, f.rule) for f in service] == [(7, "OBS004")]
        assert "'service_start'" in service[0].message
        assert "repro/serve/" in service[0].message

    def test_simulator_wrapper_call_from_outside_the_scope_is_flagged(
        self,
    ):
        findings = lint_project([ObsScopePass()])
        sim = [f for f in findings if f.path == "repro/outside_sim.py"]
        assert [(f.line, f.rule) for f in sim] == [(7, "OBS004")]
        assert "'decision_epoch'" in sim[0].message
        assert "repro/sim/" in sim[0].message

    def test_in_scope_emission_itself_is_not_flagged(self):
        findings = lint_project([ObsScopePass()])
        assert sorted(f.path for f in findings) == [
            "repro/outside.py",
            "repro/outside_sim.py",
        ]


class TestSoundnessGap:
    def test_stats_report_unresolved_calls(self):
        stats = {}
        lint_project([ObsScopePass()], stats=stats)
        # At least dynamic.apply's two opaque calls land in the gap.
        assert stats["unresolved_calls"] >= 2

    def test_index_attributes_unresolved_to_their_context(self):
        files = [
            SourceFile(path, PROJECT)
            for path in sorted(PROJECT.rglob("*.py"))
        ]
        index = ProjectIndex(files)
        texts = {
            call.callee_text
            for call in index.graph.unresolved
            if call.caller == "repro.dynamic.apply"
        }
        assert "callback" in texts

    def test_cli_json_surfaces_the_count(self, capsys):
        code = main(
            [
                "lint",
                str(PROJECT),
                "--select",
                "obs-scope",
                "--format",
                "json",
            ]
        )
        assert code == 1  # the two planted wrapper calls.
        payload = json.loads(capsys.readouterr().out)
        assert payload["unresolved_calls"] >= 2
        assert [f["rule"] for f in payload["findings"]] == ["OBS004"] * 2


#: POL005 across modules: ``base`` opts in, ``child`` inherits the
#: opt-in and reaches the clock through a helper in ``helpers``, and
#: ``optout`` declares ``pure_round = False`` again.
PURE_TREE = {
    "pkg/__init__.py": "",
    "pkg/base.py": (
        "from repro.core.policies.base import SchedulingPolicy\n"
        "\n"
        "class Pure(SchedulingPolicy):\n"
        '    name = "pure"\n'
        "    pure_round = True\n"
        "\n"
        "    def schedule(self, jobs, total, ctx):\n"
        "        return self.order(jobs, ctx)\n"
        "\n"
        "    def order(self, jobs, ctx):\n"
        "        return jobs\n"
    ),
    "pkg/helpers.py": (
        "def by_slack(jobs, ctx):\n"
        "    return sorted(jobs, key=lambda j: j.deadline_s - ctx.now_s)\n"
    ),
    "pkg/child.py": (
        "from pkg.base import Pure\n"
        "from pkg.helpers import by_slack\n"
        "\n"
        "class Clocked(Pure):\n"
        "    def order(self, jobs, ctx):\n"
        "        return by_slack(jobs, ctx)\n"
    ),
    "pkg/optout.py": (
        "from pkg.child import Clocked\n"
        "\n"
        "class Honest(Clocked):\n"
        "    pure_round = False\n"
    ),
}


def test_pol005_resolves_bases_and_helpers_across_modules(tmp_path):
    root = write_tree(tmp_path, PURE_TREE)
    findings = lint_paths(
        [root / "pkg"], build_passes(["POL005"]), display_root=root
    )
    assert [(f.path, f.line, f.rule) for f in findings] == [
        ("pkg/child.py", 4, "POL005")
    ]
    assert "now_s (in pkg.helpers.by_slack)" in findings[0].message
