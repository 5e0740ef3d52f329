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

import importlib

#: Public name -> the module that defines it. Resolved on first access
#: (PEP 562), so importing ``repro.lint.cli`` to build the ``repro``
#: argument parser does not load the engine and every pass.
_EXPORTS = {
    "ALL_PASSES": "repro.lint.passes",
    "CallGraph": "repro.lint.callgraph",
    "Finding": "repro.lint.findings",
    "LintPass": "repro.lint.engine",
    "ProjectIndex": "repro.lint.engine",
    "ProjectPass": "repro.lint.engine",
    "RULES": "repro.lint.findings",
    "SourceFile": "repro.lint.engine",
    "SymbolTable": "repro.lint.symbols",
    "build_passes": "repro.lint.passes",
    "default_target": "repro.lint.engine",
    "discover_files": "repro.lint.engine",
    "lint_paths": "repro.lint.engine",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
