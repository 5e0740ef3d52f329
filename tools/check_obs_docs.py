#!/usr/bin/env python
"""Check docs/OBSERVABILITY.md, docs/FAULTS.md, docs/SERVE.md and
docs/LINT.md against the code.

The event schema has two sources: ``repro.obs.events`` (what the code
emits and validates) and ``docs/OBSERVABILITY.md`` (what operators read).
This script parses the doc's ``### `event_type` `` headings and the
first column of each field table and fails — exit code 1, with a
per-drift message — whenever either side documents an event type or a
field the other does not have.

The fault subsystem gets the same treatment: every fault kind in
``repro.faults.FAULT_KINDS`` must have a ``### `kind` `` section in
``docs/FAULTS.md``, and every fault event type
(``repro.obs.events.FAULT_TYPES``) must be mentioned there, so the spec
reference cannot silently fall behind the engine.

And the online service: ``docs/SERVE.md`` must have a ``### `op` ``
section per protocol operation (``repro.serve.protocol.OPS``) and
mention every service-lifecycle event type and reject reason.

And the linter: the ``| rule | pass | summary |`` catalogue table in
``docs/LINT.md`` must list exactly the rules in
``repro.lint.findings.RULES``, each under the pass that owns it in the
registry (``PAR001`` under the ``engine``).

And the simulator kernel: every backticked ``_name`` in the first
column of ``docs/DESIGN.md``'s ``| hook | fluid | minibatch |`` table
must be an attribute of both ``FluidSimulator`` and
``MinibatchEmulator``.

And the code references: every backticked ``Class.attr`` in
``docs/OBSERVABILITY.md`` must name an attribute of a ``repro`` class of
that name — a method, a class-level name or a ``self.attr`` write, its
own or inherited from a ``repro`` base class.

Run directly (``python tools/check_obs_docs.py``) or via the tier-1
test ``tests/obs/test_docs_consistency.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATH = REPO_ROOT / "docs" / "OBSERVABILITY.md"
FAULTS_DOC_PATH = REPO_ROOT / "docs" / "FAULTS.md"
SERVE_DOC_PATH = REPO_ROOT / "docs" / "SERVE.md"
LINT_DOC_PATH = REPO_ROOT / "docs" / "LINT.md"
DESIGN_DOC_PATH = REPO_ROOT / "docs" / "DESIGN.md"

_HEADING = re.compile(r"^### `(?P<name>[a-z_]+)`\s*$")
_TABLE_ROW = re.compile(r"^\| `(?P<field>[a-z0-9_]+)` \|")

#: A row of the LINT.md rule-catalogue table: | `RULE` | `pass` | ... |
_LINT_ROW = re.compile(
    r"^\| `(?P<rule>[A-Z]+\d+)` \| `(?P<pass>[a-z-]+)` \|"
)


def parse_doc_schema(text: str) -> dict:
    """Extract {event_type: [field, ...]} from the markdown source."""
    schema: dict = {}
    current = None
    for line in text.splitlines():
        heading = _HEADING.match(line)
        if heading:
            current = heading.group("name")
            schema[current] = []
            continue
        if current is None:
            continue
        if line.startswith("## "):
            current = None
            continue
        row = _TABLE_ROW.match(line)
        if row:
            schema[current].append(row.group("field"))
    return schema


def compare(doc_schema: dict, code_fields: dict) -> list:
    """Return a list of human-readable drift messages (empty = in sync)."""
    problems = []
    for etype in code_fields:
        if etype not in doc_schema:
            problems.append(
                f"event type {etype!r} is implemented but has no "
                f"'### `{etype}`' section in docs/OBSERVABILITY.md"
            )
    for etype in doc_schema:
        if etype not in code_fields:
            problems.append(
                f"docs/OBSERVABILITY.md documents {etype!r}, which is "
                f"not in repro.obs.events.EVENT_FIELDS"
            )
    for etype, fields in code_fields.items():
        documented = doc_schema.get(etype)
        if documented is None:
            continue
        missing = [f for f in fields if f not in documented]
        extra = [f for f in documented if f not in fields]
        if missing:
            problems.append(
                f"{etype}: fields {missing} implemented but undocumented"
            )
        if extra:
            problems.append(
                f"{etype}: fields {extra} documented but not implemented"
            )
    return problems


def check_faults_doc(
    text: str, fault_kinds: list, fault_types: list
) -> list:
    """Drift messages for docs/FAULTS.md vs the fault subsystem."""
    problems = []
    headings = {
        m.group("name")
        for m in (_HEADING.match(line) for line in text.splitlines())
        if m
    }
    for kind in fault_kinds:
        if kind not in headings:
            problems.append(
                f"fault kind {kind!r} is implemented but has no "
                f"'### `{kind}`' section in docs/FAULTS.md"
            )
    for etype in fault_types:
        if f"`{etype}`" not in text:
            problems.append(
                f"fault event type {etype!r} is never mentioned in "
                f"docs/FAULTS.md"
            )
    return problems


def check_windows_doc(text: str, window_names: list) -> list:
    """Drift messages for the sliding-window table vs WINDOW_NAMES."""
    problems = []
    for name in window_names:
        if f"`{name}`" not in text:
            problems.append(
                f"window {name!r} is in repro.obs.windows.WINDOW_NAMES "
                f"but never mentioned in docs/OBSERVABILITY.md"
            )
    return problems


def check_serve_doc(
    text: str,
    ops: list,
    service_types: list,
    reject_reasons: list,
) -> list:
    """Drift messages for docs/SERVE.md vs the service subsystem."""
    problems = []
    headings = {
        m.group("name")
        for m in (_HEADING.match(line) for line in text.splitlines())
        if m
    }
    for op in ops:
        if op not in headings:
            problems.append(
                f"protocol op {op!r} is implemented but has no "
                f"'### `{op}`' section in docs/SERVE.md"
            )
    for etype in service_types:
        if f"`{etype}`" not in text:
            problems.append(
                f"service event type {etype!r} is never mentioned in "
                f"docs/SERVE.md"
            )
    for reason in reject_reasons:
        if f"`{reason}`" not in text:
            problems.append(
                f"reject reason {reason!r} is never mentioned in "
                f"docs/SERVE.md"
            )
    # The scrape endpoint and the SLO submit field are part of the
    # operator contract — keep them documented.
    if "Prometheus" not in text:
        problems.append(
            "docs/SERVE.md never mentions the Prometheus /metrics "
            "exposition (repro.obs.prom)"
        )
    if "`deadline_s`" not in text:
        problems.append(
            "docs/SERVE.md never mentions the submit job field "
            "'deadline_s' (SLO tracking)"
        )
    return problems


def check_lint_doc(text: str, rule_owners: dict) -> list:
    """Drift messages for the docs/LINT.md rule-catalogue table.

    ``rule_owners`` maps every rule id to its owning pass name
    (``PAR001`` belongs to the ``engine``); the doc's
    ``| rule | pass | summary |`` table must list exactly those rows.
    """
    documented = {}
    for line in text.splitlines():
        row = _LINT_ROW.match(line)
        if row:
            documented[row.group("rule")] = row.group("pass")
    problems = []
    for rule, owner in rule_owners.items():
        got = documented.get(rule)
        if got is None:
            problems.append(
                f"lint rule {rule!r} has no catalogue row in docs/LINT.md"
            )
        elif got != owner:
            problems.append(
                f"docs/LINT.md lists {rule!r} under pass {got!r}, "
                f"but it belongs to {owner!r}"
            )
    for rule in documented:
        if rule not in rule_owners:
            problems.append(
                f"docs/LINT.md catalogues {rule!r}, which no shipped "
                f"pass (or the engine) emits"
            )
    return problems


#: The header row of docs/DESIGN.md's simulator hook table.
_HOOK_HEADER = "| hook | fluid | minibatch |"
#: A private attribute named in a hook-table cell: `_name` or `_name(...)`.
_HOOK_NAME = re.compile(r"`(?P<name>_\w+)")


def parse_hook_table(text: str) -> list:
    """The ``_name`` attributes the hook table's first column names."""
    names = []
    in_table = False
    for line in text.splitlines():
        if line.strip() == _HOOK_HEADER:
            in_table = True
        elif in_table:
            if not line.startswith("|"):
                break
            first_cell = line.split("|")[1]
            names.extend(
                m.group("name") for m in _HOOK_NAME.finditer(first_cell)
            )
    return names


def check_design_hooks(text: str, classes: list) -> list:
    """Drift messages for the DESIGN.md hook table vs the simulators."""
    names = parse_hook_table(text)
    if not names:
        return [f"docs/DESIGN.md has no '{_HOOK_HEADER}' hook table"]
    return [
        f"docs/DESIGN.md's hook table names {name!r}, which "
        f"{cls.__name__} does not have"
        for name in names
        for cls in classes
        if not hasattr(cls, name)
    ]


#: A backticked code reference `Class.attr` or `Class.attr(...)`.
_CLASS_ATTR = re.compile(r"`(?P<cls>[A-Z]\w*)\.(?P<attr>\w+)(?:\([^`]*\))?`")


def _class_attrs(node: ast.ClassDef) -> set:
    """Names one class body defines: its methods, its class-level names
    and every ``self.<name>`` its methods assign."""
    names = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
            for sub in ast.walk(item):
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, ast.AnnAssign):
                    targets = [sub.target]
                else:
                    continue
                names.update(
                    t.attr
                    for t in targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                )
        elif isinstance(item, ast.Assign):
            names.update(t.id for t in item.targets if isinstance(t, ast.Name))
        elif isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            names.add(item.target.id)
    return names


def repro_symbols():
    """The lint engine's symbol table over ``src/repro``."""
    from repro.lint.engine import SourceFile, discover_files
    from repro.lint.symbols import SymbolTable

    return SymbolTable.build(
        [
            SourceFile(path, REPO_ROOT)
            for path in discover_files([REPO_ROOT / "src" / "repro"])
        ]
    )


def _has_attr(table, cls: str, attr: str) -> bool:
    """Whether a ``repro`` class named ``cls`` or one of its ``repro``
    bases defines ``attr``."""
    stack = [sym for sym in table.classes.values() if sym.node.name == cls]
    seen = set()
    while stack:
        symbol = stack.pop()
        if symbol.qname in seen:
            continue
        seen.add(symbol.qname)
        if attr in _class_attrs(symbol.node):
            return True
        stack.extend(table.base_classes(symbol))
    return False


def check_class_refs(text: str, table) -> list:
    """Drift messages for backticked ``Class.attr`` names in ``text``,
    resolved against ``table`` (see :func:`repro_symbols`)."""
    problems = []
    refs = {m.group("cls", "attr") for m in _CLASS_ATTR.finditer(text)}
    for cls, attr in sorted(refs):
        if not _has_attr(table, cls, attr):
            problems.append(
                f"docs/OBSERVABILITY.md names `{cls}.{attr}`, which no "
                f"repro class {cls} has"
            )
    return problems


def main() -> int:
    """Run the check; print drift and return the exit code."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.faults.spec import FAULT_KINDS
    from repro.obs.events import EVENT_FIELDS, FAULT_TYPES, SERVICE_TYPES
    from repro.obs.windows import WINDOW_NAMES
    from repro.serve.protocol import OPS, REJECT_REASONS

    obs_text = DOC_PATH.read_text()
    doc_schema = parse_doc_schema(obs_text)
    code_fields = {k: list(v) for k, v in EVENT_FIELDS.items()}
    problems = compare(doc_schema, code_fields)
    problems.extend(check_windows_doc(obs_text, list(WINDOW_NAMES)))
    problems.extend(check_class_refs(obs_text, repro_symbols()))
    if not FAULTS_DOC_PATH.exists():
        problems.append("docs/FAULTS.md is missing")
    else:
        problems.extend(
            check_faults_doc(
                FAULTS_DOC_PATH.read_text(),
                list(FAULT_KINDS),
                list(FAULT_TYPES),
            )
        )
    if not SERVE_DOC_PATH.exists():
        problems.append("docs/SERVE.md is missing")
    else:
        problems.extend(
            check_serve_doc(
                SERVE_DOC_PATH.read_text(),
                list(OPS),
                list(SERVICE_TYPES),
                list(REJECT_REASONS),
            )
        )
    from repro.lint.findings import RULES
    from repro.lint.passes import build_passes

    rule_owners = {"PAR001": "engine"}
    for instance in build_passes(None):
        for rule in instance.rules:
            rule_owners[rule] = instance.name
    # RULES and the pass registry must agree before the doc can.
    for rule in RULES:
        rule_owners.setdefault(rule, "engine")
    if not LINT_DOC_PATH.exists():
        problems.append("docs/LINT.md is missing")
    else:
        problems.extend(
            check_lint_doc(LINT_DOC_PATH.read_text(), rule_owners)
        )
    from repro.sim.fluid import FluidSimulator
    from repro.sim.minibatch import MinibatchEmulator

    design_text = DESIGN_DOC_PATH.read_text()
    hooks = parse_hook_table(design_text)
    problems.extend(
        check_design_hooks(design_text, [FluidSimulator, MinibatchEmulator])
    )
    if problems:
        for problem in problems:
            print(f"DRIFT: {problem}", file=sys.stderr)
        return 1
    print(
        f"docs/OBSERVABILITY.md in sync: {len(code_fields)} event types, "
        f"{sum(len(v) for v in code_fields.values())} fields, "
        f"{len(WINDOW_NAMES)} windows; "
        f"docs/FAULTS.md in sync: {len(FAULT_KINDS)} fault kinds; "
        f"docs/SERVE.md in sync: {len(OPS)} ops; "
        f"docs/LINT.md in sync: {len(rule_owners)} rules catalogued; "
        f"docs/DESIGN.md in sync: {len(hooks)} simulator hooks"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
