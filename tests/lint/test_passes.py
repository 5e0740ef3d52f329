"""Each lint pass flags its bad fixture and accepts its clean twin."""

from pathlib import Path

import pytest

from repro.lint import build_passes, lint_paths
from repro.lint.passes.determinism import DeterminismPass
from repro.lint.passes.floateq import FloatEqualityPass
from repro.lint.passes.obs_schema import ObsSchemaPass
from repro.lint.passes.obs_scope import ObsScopePass
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
        {"OBS001", "OBS002"},
        "obs_good.py",
    ),
    (
        ObsScopePass,
        "obs_bad.py",
        {"OBS004"},
        "obs_good.py",
    ),
    (
        PolicyConformancePass,
        "policy_bad.py",
        {"POL001", "POL002", "POL003", "POL004", "POL005"},
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
        "DET001": 3,  # random.Random(); np.random.default_rng() twice
        "DET002": 2,  # from random import shuffle; random.random()
        "DET003": 2,  # time.time(), datetime.now()
        "DET004": 1,  # set-literal iteration
        "DET005": 3,  # hash(tag), key=hash, id(ordered)
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
    assert "['flavour']" in messages  # drift on an ev.CONSTANT emit


def _obs004(kind):
    findings = run_single(ObsScopePass, "obs_bad.py")
    return [
        f for f in findings if f.rule == "OBS004" and kind in f.message
    ]


def test_obs004_counts_both_service_emission_forms():
    """OBS004 fires for each service-lifecycle emit outside serve/."""
    obs004 = _obs004("service-lifecycle")
    assert len(obs004) == 2
    assert {"'service_start'" in f.message for f in obs004} == {True, False}


def test_obs004_counts_both_simulator_emission_forms():
    """Simulator-scoped events outside repro/sim/: helper and raw emit."""
    obs004 = _obs004("simulator-scoped")
    assert [(f.line, f.message.split("'")[1]) for f in obs004] == [
        (24, "slo_warn"),
        (29, "decision_job"),
    ]
    assert all("outside repro/sim/" in f.message for f in obs004)


def test_obs004_exempts_serve_package_and_tracer_helpers():
    """The service is a legal emit site; the tracer module emits none."""
    import repro.obs.tracer as tracer_module
    import repro.serve.engine as engine_module

    findings = lint_paths(
        [Path(engine_module.__file__), Path(tracer_module.__file__)],
        [ObsScopePass()],
    )
    assert findings == []


def test_obs004_exempts_simulators_and_emission_modules():
    """repro/sim/ and the prov/slo emitters are legal provenance sites."""
    import repro.obs.prov as prov_module
    import repro.obs.slo as slo_module
    import repro.sim.fluid as fluid_module
    import repro.sim.kernel as kernel_module

    findings = lint_paths(
        [
            Path(module.__file__)
            for module in (
                prov_module,
                slo_module,
                fluid_module,
                kernel_module,
            )
        ],
        [ObsScopePass()],
    )
    assert findings == []


def test_perf_pass_only_covers_vectorized_modules(tmp_path):
    """The same sweep is legal in a module that imports neither
    ``repro.sim`` nor ``repro.cache``."""
    source = FIXTURES / "perf_bad.py"
    opted_out = tmp_path / "plain.py"
    opted_out.write_text(
        "\n".join(
            line
            for line in source.read_text().splitlines()
            if "repro.cache" not in line
        )
        + "\n"
    )
    assert lint_paths([opted_out], [PerfPass()]) == []


ROUND_MODULE = FIXTURES / "project" / "repro" / "sim" / "jobtable.py"


def test_perf002_flags_two_argument_min_max_in_round_modules():
    """Every two-argument ``min``/``max`` fires, nothing else does: not
    the n-ary form, ``key=``/``default=``, starred arguments, the
    comparison form, or a suppressed line."""
    findings = lint_paths(
        [ROUND_MODULE], [PerfPass()], display_root=FIXTURES / "project"
    )
    assert [(f.path, f.line, f.rule) for f in findings] == [
        ("repro/sim/jobtable.py", 5, "PERF002"),
        ("repro/sim/jobtable.py", 9, "PERF002"),
        ("repro/sim/jobtable.py", 13, "PERF002"),
        ("repro/sim/jobtable.py", 13, "PERF002"),
    ]


def test_perf002_only_covers_round_modules(tmp_path):
    """The same calls are legal in a module outside the round scope."""
    outside = tmp_path / "jobtable.py"
    outside.write_text(ROUND_MODULE.read_text())
    assert lint_paths([outside], [PerfPass()]) == []


def test_build_passes_selects_by_name_and_rule():
    assert [p.name for p in build_passes(["determinism"])] == [
        "determinism"
    ]
    assert [p.name for p in build_passes(["UNI001"])] == ["units"]
    with pytest.raises(ValueError):
        build_passes(["no-such-pass"])


def test_build_passes_accepts_selectors_sharing_a_pass():
    """Two selectors that match one pass select it once; neither is
    reported unknown."""
    for select in (["determinism", "DET001"], ["POL004", "POL001"]):
        assert len(build_passes(select)) == 1, select
    assert [p.name for p in build_passes(["DET", "XUNI001"])] == [
        "determinism",
        "xuni",
    ]
