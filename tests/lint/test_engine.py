"""Engine behaviour: suppressions, CLI output, parse errors."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import lint_paths
from repro.lint.passes.determinism import DeterminismPass

FIXTURES = Path(__file__).parent / "fixtures"

pytestmark = pytest.mark.lint


def lint_snippet(tmp_path, source, passes=None):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return lint_paths(
        [path], passes or [DeterminismPass()], display_root=tmp_path
    )


class TestSuppressions:
    def test_same_line_disable(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import time\n"
            "t = time.time()  # lint: disable=DET003\n",
        )
        assert findings == []

    def test_preceding_comment_disable(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import time\n"
            "# wall clock is fine here\n"
            "# lint: disable=DET003\n"
            "t = time.time()\n",
        )
        assert findings == []

    def test_disable_all_wildcard(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import time\n"
            "t = time.time()  # lint: disable=all\n",
        )
        assert findings == []

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import time\n"
            "t = time.time()  # lint: disable=UNI001\n",
        )
        assert [f.rule for f in findings] == ["DET003"]

    def test_suppression_is_line_scoped(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import time\n"
            "a = time.time()  # lint: disable=DET003\n"
            "b = time.time()\n",
        )
        assert len(findings) == 1
        assert findings[0].line == 3

    def test_trailing_disable_covers_the_whole_statement(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import time\n"
            "t = (  # lint: disable=DET003\n"
            "    time.time()\n"
            ")\n",
        )
        assert findings == []

    def test_standalone_disable_covers_the_whole_statement(
        self, tmp_path
    ):
        findings = lint_snippet(
            tmp_path,
            "import time\n"
            "# lint: disable=DET003\n"
            "t = (\n"
            "    time.time()\n"
            ")\n",
        )
        assert findings == []

    def test_explanation_may_stack_after_the_disable(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import time\n"
            "# lint: disable=DET003\n"
            "# the wall clock is deliberate: this measures real time\n"
            "t = time.time()\n",
        )
        assert findings == []

    def test_compound_header_does_not_shield_the_block(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import time\n"
            "# lint: disable=DET003\n"
            "if True:\n"
            "    t = time.time()\n",
        )
        assert [f.line for f in findings] == [4]


class TestParseErrors:
    def test_syntax_error_yields_par001(self, tmp_path):
        findings = lint_snippet(tmp_path, "def broken(:\n")
        assert [f.rule for f in findings] == ["PAR001"]

    def test_other_files_still_linted(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (tmp_path / "dirty.py").write_text(
            "import time\nt = time.time()\n"
        )
        findings = lint_paths(
            [tmp_path], [DeterminismPass()], display_root=tmp_path
        )
        assert sorted(f.rule for f in findings) == ["DET003", "PAR001"]

    def test_cli_fails_on_par001(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        assert main(["lint", str(broken)]) == 1
        assert "PAR001" in capsys.readouterr().out


class TestCli:
    def write_dirty(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text("import time\nt = time.time()\n")
        return path

    def test_findings_exit_code_and_text(self, tmp_path, capsys):
        path = self.write_dirty(tmp_path)
        code = main(["lint", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DET003" in out and "1 finding(s)" in out

    def test_json_format(self, tmp_path, capsys):
        path = self.write_dirty(tmp_path)
        code = main(["lint", str(path), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"findings", "unresolved_calls"}
        assert payload["findings"][0]["rule"] == "DET003"

    def test_select_unknown_pass_errors(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path), "--select", "bogus"])
        assert code == 2
        assert "unknown pass" in capsys.readouterr().out

    def test_select_two_selectors_of_one_pass(self, capsys):
        code = main(
            [
                "lint",
                str(FIXTURES / "policy_bad.py"),
                "--select",
                "POL004",
                "POL001",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "unknown" not in out
        assert [line.split()[1] for line in out.splitlines()[:-1]] == [
            "POL001",
            "POL004",
        ]

    def test_rule_selector_narrows_the_output(self, capsys):
        bad = str(FIXTURES / "determinism_bad.py")
        assert main(["lint", bad, "--select", "DET001"]) == 1
        rules = {
            line.split()[1]
            for line in capsys.readouterr().out.splitlines()[:-1]
        }
        assert rules == {"DET001"}
        assert main(["lint", bad, "--select", "determinism", "DET001"]) == 1
        rules = {
            line.split()[1]
            for line in capsys.readouterr().out.splitlines()[:-1]
        }
        assert rules == {"DET001", "DET002", "DET003", "DET004", "DET005"}

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "DET001",
            "UNI002",
            "FLT001",
            "OBS001",
            "POL003",
            "DET005",
            "XUNI002",
            "OBS004",
        ):
            assert rule in out

    def test_explain_prints_the_long_doc(self, capsys):
        assert main(["lint", "--explain", "OBS004"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OBS004:")
        assert "call edge" in out

    def test_explain_covers_engine_rules_too(self, capsys):
        assert main(["lint", "--explain", "PAR001"]) == 0
        assert "parse" in capsys.readouterr().out

    def test_explain_every_catalogued_rule(self, capsys):
        from repro.lint.findings import RULES

        for rule in RULES:
            assert main(["lint", "--explain", rule]) == 0, rule
        capsys.readouterr()

    def test_explain_unknown_rule_errors(self, capsys):
        assert main(["lint", "--explain", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().out
