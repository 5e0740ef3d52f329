"""Each lint pass flags its bad fixture and accepts its clean twin."""

from pathlib import Path

import pytest

from repro.lint import build_passes, lint_paths
from repro.lint.passes.determinism import DeterminismPass
from repro.lint.passes.floateq import FloatEqualityPass
from repro.lint.passes.obs_schema import ObsSchemaPass
from repro.lint.passes.perf import PerfPass
from repro.lint.passes.policy import PolicyConformancePass
from repro.lint.passes.units import UnitsPass

FIXTURES = Path(__file__).parent / "fixtures"

pytestmark = pytest.mark.lint

#: (pass class, bad fixture, rule ids that must fire, clean fixture).
CASES = [
    (
        DeterminismPass,
        "determinism_bad.py",
        {"DET001", "DET002", "DET003", "DET004", "DET005"},
        "determinism_good.py",
    ),
    (
        UnitsPass,
        "units_bad.py",
        {"UNI001", "UNI002"},
        "units_good.py",
    ),
    (
        FloatEqualityPass,
        "floateq_bad.py",
        {"FLT001"},
        "floateq_good.py",
    ),
    (
        ObsSchemaPass,
        "obs_bad.py",
        {"OBS001", "OBS002", "OBS004"},
        "obs_good.py",
    ),
    (
        PolicyConformancePass,
        "policy_bad.py",
        {"POL001", "POL002", "POL003", "POL004"},
        "policy_good.py",
    ),
    (
        PerfPass,
        "perf_bad.py",
        {"PERF001"},
        "perf_good.py",
    ),
]


def run_single(pass_cls, fixture_name):
    return lint_paths(
        [FIXTURES / fixture_name], [pass_cls()], display_root=FIXTURES
    )


@pytest.mark.parametrize(
    "pass_cls,bad,expected_rules,good",
    CASES,
    ids=[c[0].name for c in CASES],
)
def test_bad_fixture_fires_every_rule(pass_cls, bad, expected_rules, good):
    findings = run_single(pass_cls, bad)
    fired = {f.rule for f in findings}
    assert expected_rules <= fired, (
        f"{pass_cls.name}: expected {sorted(expected_rules)}, "
        f"got {sorted(fired)}: {[f.render() for f in findings]}"
    )


@pytest.mark.parametrize(
    "pass_cls,bad,expected_rules,good",
    CASES,
    ids=[c[0].name for c in CASES],
)
def test_good_fixture_is_clean(pass_cls, bad, expected_rules, good):
    findings = run_single(pass_cls, good)
    assert findings == [], [f.render() for f in findings]


def test_determinism_counts_every_site():
    """The bad fixture's per-rule finding counts are exact."""
    findings = run_single(DeterminismPass, "determinism_bad.py")
    by_rule = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    assert by_rule == {
        "DET001": 2,  # random.Random(), np.random.default_rng()
        "DET002": 2,  # from random import shuffle; random.random()
        "DET003": 2,  # time.time(), datetime.now()
        "DET004": 1,  # set-literal iteration
        "DET005": 2,  # hash(tag), key=hash
    }


def test_units_pass_skips_units_module():
    """repro/units.py is the one legal home for conversion constants."""
    import repro.units as units_module

    findings = lint_paths(
        [Path(units_module.__file__)], [UnitsPass()]
    )
    assert findings == []


def test_obs_pass_reports_field_drift_detail():
    findings = run_single(ObsSchemaPass, "obs_bad.py")
    messages = "\n".join(f.message for f in findings)
    assert "job_teleport" in messages
    assert "missing fields ['epochs_done']" in messages
    assert "extra fields ['mood']" in messages
    assert "['flavour']" in messages  # helper-call drift


def test_obs004_counts_both_service_emission_forms():
    """OBS004 fires for the typed helper and the raw-emit spelling."""
    findings = run_single(ObsSchemaPass, "obs_bad.py")
    obs004 = [f for f in findings if f.rule == "OBS004"]
    assert len(obs004) == 2
    assert {"'service_start'" in f.message for f in obs004} == {True, False}


def test_obs004_exempts_serve_package_and_tracer_helpers():
    """The service and the helper definitions are the legal emit sites."""
    import repro.obs.tracer as tracer_module
    import repro.serve.engine as engine_module

    findings = lint_paths(
        [Path(engine_module.__file__), Path(tracer_module.__file__)],
        [ObsSchemaPass()],
    )
    assert [f for f in findings if f.rule == "OBS004"] == []


def test_perf_pass_only_covers_vectorized_modules(tmp_path):
    """The same sweep is legal in a module that never opted in."""
    source = FIXTURES / "perf_bad.py"
    opted_out = tmp_path / "plain.py"
    opted_out.write_text(
        "\n".join(
            line
            for line in source.read_text().splitlines()
            if "repro.backend" not in line
        )
        + "\n"
    )
    assert lint_paths([opted_out], [PerfPass()]) == []


def test_build_passes_selects_by_name_and_rule():
    assert [p.name for p in build_passes(["determinism"])] == [
        "determinism"
    ]
    assert [p.name for p in build_passes(["UNI001"])] == ["units"]
    with pytest.raises(ValueError):
        build_passes(["no-such-pass"])
