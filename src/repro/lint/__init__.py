"""``repro.lint``: an AST-based invariant linter for the reproduction.

SiloD's headline claim rests on invariants that ordinary test suites
cannot see: both simulators must stay byte-identical under the same
seed, every quantity must follow the internal unit convention (MB,
MB/s, seconds — :mod:`repro.units`), the structured event log must
match the schema in :mod:`repro.obs.events`, and scheduling policies
must stay behind the :class:`~repro.core.policies.base.SchedulingPolicy`
interface. ``repro.lint`` turns those conventions into machine-checked
rules: it parses the source tree with :mod:`ast` and runs pluggable
passes, each reporting ``(file, line, rule-id, message)`` findings.

Entry points
------------
* ``python -m repro lint`` — the CLI subcommand (text or JSON output;
  ``python -m repro lint src/repro tools benchmarks`` is the CI gate);
* :func:`lint_paths` — the library API used by the tests;
* ``docs/LINT.md`` — the rule catalogue and the guide for adding a pass.

Findings can be silenced inline (``# lint: disable=RULE``) with a
reason; the repo itself lints clean.
"""

from repro.lint.callgraph import CallGraph
from repro.lint.engine import (
    LintPass,
    ProjectIndex,
    ProjectPass,
    SourceFile,
    default_target,
    discover_files,
    lint_paths,
)
from repro.lint.findings import RULES, Finding
from repro.lint.passes import ALL_PASSES, build_passes
from repro.lint.symbols import SymbolTable

__all__ = [
    "ALL_PASSES",
    "CallGraph",
    "Finding",
    "LintPass",
    "ProjectIndex",
    "ProjectPass",
    "RULES",
    "SourceFile",
    "SymbolTable",
    "build_passes",
    "default_target",
    "discover_files",
    "lint_paths",
]
