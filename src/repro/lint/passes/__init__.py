"""The pass registry.

Every shipped pass is listed in :data:`ALL_PASSES`; ``build_passes``
instantiates the selection the CLI asked for. The registry mixes
per-file :class:`~repro.lint.engine.LintPass` and whole-program
:class:`~repro.lint.engine.ProjectPass` subclasses — the engine
partitions them into its two phases. Adding a pass is three steps (see
``docs/LINT.md``): write the pass class in a new module here, register
its rule ids in :data:`repro.lint.findings.RULES`, and append the class
to :data:`ALL_PASSES`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.lint.passes.determinism import DeterminismPass
from repro.lint.passes.floateq import FloatEqualityPass
from repro.lint.passes.obs_schema import ObsSchemaPass
from repro.lint.passes.obs_scope import ObsScopePass
from repro.lint.passes.perf import PerfPass
from repro.lint.passes.policy import PolicyConformancePass
from repro.lint.passes.units import UnitsPass
from repro.lint.passes.xuni import CrossUnitsPass

#: Every shipped pass, in report order: per-file first, then the
#: whole-program (phase 2) passes.
ALL_PASSES: Sequence[type] = (
    DeterminismPass,
    UnitsPass,
    FloatEqualityPass,
    ObsSchemaPass,
    PolicyConformancePass,
    PerfPass,
    CrossUnitsPass,
    ObsScopePass,
)


def selected_rules(select: Sequence[str]) -> Set[str]:
    """The rule ids ``select`` names.

    A selector is a pass name (``determinism``, ``obs-scope``, ...),
    naming all of that pass's rules, or a rule-id prefix (``DET``,
    ``UNI001``, ``XUNI``). Unknown selectors raise ``ValueError`` so
    typos fail loudly.
    """
    rules: Set[str] = set()
    unmatched = []
    for token in select:
        matched = {
            rule
            for cls in ALL_PASSES
            for rule in cls.rules
            if token == cls.name or rule.startswith(token)
        }
        if not matched:
            unmatched.append(token)
        rules |= matched
    if unmatched:
        raise ValueError(f"unknown pass/rule selector(s): {unmatched}")
    return rules


def build_passes(
    select: Optional[Sequence[str]] = None,
) -> List[object]:
    """Instantiate the passes that emit a selected rule (all by default;
    see :func:`selected_rules`)."""
    if not select:
        return [cls() for cls in ALL_PASSES]
    rules = selected_rules(select)
    return [cls() for cls in ALL_PASSES if rules.intersection(cls.rules)]
