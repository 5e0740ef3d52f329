"""Obs-schema pass: every emitted event must match ``repro.obs.events``.

The structured event log is a contract (``docs/OBSERVABILITY.md``);
``tools/check_obs_docs.py`` keeps the *docs* in sync with the schema,
and this pass keeps the *emitting code* in sync — the code-side half of
that check, absorbed into the linter so it runs with every other
invariant.

* ``OBS001`` — an ``emit(...)`` call whose event type (string literal
  or ``ev.CONSTANT``) is not declared in
  :data:`repro.obs.events.EVENT_FIELDS`;
* ``OBS002`` — an emit whose keyword fields do not match the declared
  field set (missing or extra).

Where a scope-restricted event may be emitted (``OBS004``) is the
whole-program ``obs-scope`` pass's business.

Dynamic event types (a variable holding the type) are skipped — the
runtime validator (:func:`repro.obs.events.validate_event`) still
covers those.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.astutil import dotted_name
from repro.lint.engine import LintPass, SourceFile
from repro.lint.findings import Finding

def _schema():
    """The live schema (imported lazily so the pass is cheap to build)."""
    from repro.obs import events

    return events


def _resolve_etype(node: ast.Call, events) -> Optional[str]:
    """The event-type argument as a string, or ``None`` if dynamic."""
    etype_arg = None
    if len(node.args) >= 2:
        etype_arg = node.args[1]
    for kw in node.keywords:
        if kw.arg == "etype":
            etype_arg = kw.value
    if etype_arg is None:
        return None
    if isinstance(etype_arg, ast.Constant) and isinstance(
        etype_arg.value, str
    ):
        return etype_arg.value
    if isinstance(etype_arg, (ast.Name, ast.Attribute)):
        name = dotted_name(etype_arg)
        if name is None:
            return None
        const = name.split(".")[-1]
        value = getattr(events, const, None)
        if isinstance(value, str):
            return value
        if const.isupper():
            # Looks like a schema constant but is not one.
            return const.lower()
    return None


class ObsSchemaPass(LintPass):
    """Check emit sites against the declared event schema."""

    name = "obs-schema"
    rules = ("OBS001", "OBS002")

    docs = {
        "OBS001": (
            "An emit(...) whose event type is not declared in\n"
            "repro.obs.events.EVENT_FIELDS. Declare the type (and its\n"
            "fields) in the schema and document it in\n"
            "docs/OBSERVABILITY.md before emitting it."
        ),
        "OBS002": (
            "An emit(...) whose keyword fields do not match the\n"
            "declared field set for the event type — missing or extra\n"
            "fields. The schema in repro.obs.events is the contract;\n"
            "change it and the docs together, not the call site alone."
        ),
    }

    def run(self, src: SourceFile) -> List[Finding]:
        """Scan emit calls."""
        events = _schema()
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "emit":
                findings.extend(self._check_emit(src, node, events))
        return findings

    def _check_emit(
        self, src: SourceFile, node: ast.Call, events
    ) -> List[Finding]:
        etype = _resolve_etype(node, events)
        if etype is None:
            return []
        expected = events.EVENT_FIELDS.get(etype)
        if expected is None:
            return [
                src.finding(
                    node,
                    "OBS001",
                    f"emit of undeclared event type {etype!r}; declare "
                    "it in repro.obs.events.EVENT_FIELDS (and document "
                    "it in docs/OBSERVABILITY.md)",
                )
            ]
        if any(kw.arg is None for kw in node.keywords):
            return []  # **kwargs: field set is dynamic, skip.
        got = {
            kw.arg
            for kw in node.keywords
            if kw.arg not in ("etype", "job_id", "ts_s")
        }
        missing = sorted(set(expected) - got)
        extra = sorted(got - set(expected))
        if not missing and not extra:
            return []
        return [
            src.finding(
                node,
                "OBS002",
                f"emit of {etype!r} does not match the schema: "
                f"missing fields {missing}, extra fields {extra}",
            )
        ]
