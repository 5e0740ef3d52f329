"""One rule per invariant, same coverage.

The cross-module determinism taint pass was folded into the
``DET00x`` rules, and the per-file and call-edge event scoping rules
into one ``OBS004``. Running every pass over ``tests/lint/fixtures``
(the bad fixtures plus ``project/``) must still report each file:line
the linter reported before the merge.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.lint import build_passes, lint_paths

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent / "fixtures"

#: Every finding of a surviving rule over the fixtures before the merge.
BEFORE = [
    ("determinism_bad.py", 6, "DET002"),
    ("determinism_bad.py", 13, "DET001"),
    ("determinism_bad.py", 14, "DET001"),
    ("determinism_bad.py", 15, "DET002"),
    ("determinism_bad.py", 16, "DET003"),
    ("determinism_bad.py", 17, "DET003"),
    ("determinism_bad.py", 19, "DET004"),
    ("determinism_bad.py", 20, "DET005"),
    ("determinism_bad.py", 21, "DET005"),
    ("floateq_bad.py", 6, "FLT001"),
    ("floateq_bad.py", 7, "FLT001"),
    ("obs_bad.py", 8, "OBS001"),
    ("obs_bad.py", 9, "OBS001"),
    ("obs_bad.py", 10, "OBS002"),
    ("obs_bad.py", 11, "OBS002"),
    ("obs_bad.py", 14, "OBS002"),
    ("obs_bad.py", 16, "OBS004"),
    ("obs_bad.py", 20, "OBS004"),
    ("perf_bad.py", 9, "PERF001"),
    ("perf_bad.py", 16, "PERF001"),
    ("policy_bad.py", 4, "POL002"),
    ("policy_bad.py", 7, "POL001"),
    ("policy_bad.py", 12, "POL003"),
    ("policy_bad.py", 16, "POL003"),
    ("policy_bad.py", 19, "POL004"),
    ("policy_bad.py", 43, "POL005"),
    ("project/repro/clockmod.py", 7, "DET003"),
    ("project/repro/emitter.py", 7, "OBS002"),
    ("project/repro/serve/narrate.py", 9, "OBS002"),
    ("project/repro/unituse.py", 9, "XUNI001"),
    ("project/repro/unituse.py", 15, "XUNI002"),
    ("project/repro/unituse.py", 20, "XUNI002"),
    ("units_bad.py", 4, "UNI002"),
    ("units_bad.py", 4, "UNI002"),
    ("units_bad.py", 6, "UNI001"),
    ("units_bad.py", 7, "UNI001"),
    ("units_bad.py", 8, "UNI001"),
    ("units_bad.py", 9, "UNI001"),
    ("units_good.py", 11, "XUNI001"),
]

#: Each file:line a retired rule reported before the merge -> the live
#: finding that reports the same bug now.
RETIRED = {
    # The two-hop clock chain, once reported at its sink, now at its
    # source.
    ("project/repro/emitter.py", 7): (
        "project/repro/clockmod.py",
        7,
        "DET003",
    ),
    # The call from outside repro/serve/ into an emitting wrapper.
    ("project/repro/outside.py", 7): (
        "project/repro/outside.py",
        7,
        "OBS004",
    ),
}


@pytest.fixture(scope="module")
def reported():
    findings = lint_paths([FIXTURES], build_passes(), display_root=FIXTURES)
    return Counter((f.path, f.line, f.rule) for f in findings)


def test_every_surviving_finding_still_fires(reported):
    missing = Counter(BEFORE) - reported
    assert not missing, sorted(missing)


def test_every_retired_finding_is_covered_by_a_live_rule(reported):
    for retired, live in RETIRED.items():
        assert reported[live] >= 1, (retired, live)



def test_policy_rules_resolve_bases_across_modules(reported):
    """``polchild`` extends a policy class from its sibling module: the
    het-aware subclass that never publishes ``gen_scores`` fires POL004,
    and the one inheriting ``schedule`` and ``name`` stays clean."""
    pol = {
        key
        for key in reported
        if key[0]
        in ("project/repro/polbase.py", "project/repro/polchild.py")
    }
    assert pol == {("project/repro/polchild.py", 6, "POL004")}
