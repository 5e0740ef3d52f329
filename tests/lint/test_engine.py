"""Engine behaviour: suppressions, baselines, CLI output, parse errors."""

import json

import pytest

from repro.cli import main
from repro.lint import Baseline, Finding, lint_paths
from repro.lint.passes.determinism import DeterminismPass

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


class TestBaseline:
    def make_finding(self, **overrides):
        base = {
            "path": "repro/x.py",
            "line": 3,
            "rule": "DET003",
            "message": "wall clock",
        }
        base.update(overrides)
        return Finding(**base)

    def test_matching_is_line_insensitive(self):
        recorded = self.make_finding(line=3)
        current = self.make_finding(line=99)
        new, stale = Baseline([recorded]).apply([current])
        assert new == [] and stale == []

    def test_new_findings_pass_through(self):
        baseline = Baseline([self.make_finding()])
        other = self.make_finding(rule="UNI001")
        new, stale = baseline.apply([other])
        assert new == [other]
        assert stale == [self.make_finding().key()]

    def test_multiset_semantics(self):
        one = self.make_finding()
        new, stale = Baseline([one]).apply([one, one])
        assert len(new) == 1 and stale == []

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        finding = self.make_finding()
        Baseline.save(path, [finding])
        loaded = Baseline.load(path)
        new, stale = loaded.apply([finding])
        assert new == [] and stale == []

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "nope.json")
        assert len(baseline) == 0

    def test_duplicate_key_round_trip_keeps_the_count(self, tmp_path):
        """Two findings sharing a key survive save/load as a multiset."""
        path = tmp_path / "baseline.json"
        pair = [self.make_finding(line=3), self.make_finding(line=99)]
        assert pair[0].key() == pair[1].key()
        Baseline.save(path, pair)
        loaded = Baseline.load(path)
        assert len(loaded) == 2
        new, stale = loaded.apply(pair)
        assert new == [] and stale == []
        # A third occurrence exceeds the recorded count: it is new.
        new, _stale = loaded.apply(pair + [self.make_finding(line=7)])
        assert len(new) == 1

    def test_par001_can_be_baselined(self, tmp_path, capsys):
        """A tolerated parse error is absorbed; fixing it goes stale."""
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        baseline = tmp_path / "b.json"
        assert (
            main(
                [
                    "lint",
                    str(broken),
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert (
            main(["lint", str(broken), "--baseline", str(baseline)])
            == 0
        )
        broken.write_text("x = 1\n")
        assert (
            main(
                [
                    "lint",
                    str(broken),
                    "--baseline",
                    str(baseline),
                    "--strict",
                ]
            )
            == 1
        )
        assert "stale baseline" in capsys.readouterr().out


class TestCli:
    def write_dirty(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text("import time\nt = time.time()\n")
        return path

    def test_findings_exit_code_and_text(self, tmp_path, capsys):
        path = self.write_dirty(tmp_path)
        code = main(
            ["lint", str(path), "--baseline", str(tmp_path / "b.json")]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "DET003" in out and "1 finding(s)" in out

    def test_json_format(self, tmp_path, capsys):
        path = self.write_dirty(tmp_path)
        code = main(
            [
                "lint",
                str(path),
                "--format",
                "json",
                "--baseline",
                str(tmp_path / "b.json"),
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "DET003"
        assert payload["stale_baseline"] == []

    def test_write_then_pass_with_baseline(self, tmp_path, capsys):
        path = self.write_dirty(tmp_path)
        baseline = tmp_path / "b.json"
        assert (
            main(
                [
                    "lint",
                    str(path),
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert (
            main(["lint", str(path), "--baseline", str(baseline)]) == 0
        )
        capsys.readouterr()

    def test_strict_fails_on_stale_baseline(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        baseline = tmp_path / "b.json"
        Baseline.save(
            baseline,
            [Finding("clean.py", 1, "DET003", "gone")],
        )
        assert (
            main(["lint", str(path), "--baseline", str(baseline)]) == 0
        )
        assert (
            main(
                [
                    "lint",
                    str(path),
                    "--baseline",
                    str(baseline),
                    "--strict",
                ]
            )
            == 1
        )
        assert "stale baseline" in capsys.readouterr().out

    def test_select_unknown_pass_errors(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path), "--select", "bogus"])
        assert code == 2
        assert "unknown pass" in capsys.readouterr().out

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
