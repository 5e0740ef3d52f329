"""The timed-pair summary of ``tools/compare_digests.py``."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(base, work, name="m"):
    return [({name: b}, {name: w}) for b, w in zip(base, work)]


def test_quartiles_are_inclusive(tool):
    assert tool.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert tool.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_lower_is_better_gain(tool):
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    work = [b - 0.10 for b in base]
    (row,) = tool.summarize_pairs(pairs_of(base, work), [("m", "lower")])
    assert row["wins"] == 10 and row["ties"] == 0 and row["pairs"] == 10
    assert row["base"][1] == pytest.approx(1.0)
    assert row["work"][1] == pytest.approx(0.9)
    assert row["base_iqr"] == pytest.approx(0.02)  # 1.01 - 0.99
    assert row["gain"]


def test_nine_in_ten_wins_are_needed(tool):
    base = [1.0] * 10
    work = [0.5] * 8 + [1.5, 1.0]  # 8 wins, one loss, one tie
    (row,) = tool.summarize_pairs(pairs_of(base, work), [("m", "lower")])
    assert (row["wins"], row["ties"]) == (8, 1)
    assert not row["gain"]
    work[8] = 0.5  # 9 wins, one tie
    (row,) = tool.summarize_pairs(pairs_of(base, work), [("m", "lower")])
    assert row["wins"] == 9 and row["gain"]


def test_the_median_gap_must_exceed_the_base_iqr(tool):
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    work = [b - 0.5 for b in base]  # wins every pair, gap 0.5 < IQR 2
    (row,) = tool.summarize_pairs(pairs_of(base, work), [("m", "lower")])
    assert row["wins"] == 10
    assert row["base_iqr"] == pytest.approx(2.0)
    assert not row["gain"]


def test_higher_is_better_flips_the_sign(tool):
    base = [1.0] * 10
    work = [1.2] * 10
    (row,) = tool.summarize_pairs(pairs_of(base, work), [("m", "higher")])
    assert row["wins"] == 10 and row["gain"]
    (row,) = tool.summarize_pairs(pairs_of(base, work), [("m", "lower")])
    assert row["wins"] == 0 and not row["gain"]


def test_identical_runs_tie_and_claim_nothing(tool):
    (row,) = tool.summarize_pairs(
        pairs_of([3.0] * 10, [3.0] * 10), [("m", "lower")]
    )
    assert (row["wins"], row["ties"], row["gain"]) == (0, 10, False)


def test_every_declared_metric_is_summarised(tool):
    metrics = {name: 1.0 for name, _ in tool.END_TO_END}
    rows = tool.summarize_pairs([(metrics, metrics)] * 3)
    assert [row["name"] for row in rows] == [n for n, _ in tool.END_TO_END]
    lines = tool.format_summary(rows)
    assert len(lines) == len(rows) + 1
    assert all(line.rstrip().endswith("no") for line in lines[1:])
