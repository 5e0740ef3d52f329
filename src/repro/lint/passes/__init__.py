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

from typing import List, Optional, Sequence

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


def build_passes(
    select: Optional[Sequence[str]] = None,
) -> List[object]:
    """Instantiate the selected passes (all of them by default).

    ``select`` filters by pass name (``determinism``, ``obs-scope``,
    ...) or by rule-id prefix (``DET``, ``UNI001``, ``XUNI``). Unknown
    selectors raise ``ValueError`` so typos fail loudly.
    """
    if not select:
        return [cls() for cls in ALL_PASSES]
    chosen: List[object] = []
    unmatched = list(select)
    for cls in ALL_PASSES:
        instance = cls()
        for token in select:
            if token == instance.name or any(
                rule.startswith(token) for rule in instance.rules
            ):
                chosen.append(instance)
                unmatched = [t for t in unmatched if t != token]
                break
    if unmatched:
        raise ValueError(f"unknown pass/rule selector(s): {unmatched}")
    return chosen
