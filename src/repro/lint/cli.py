"""The ``repro lint`` subcommand.

Wires the engine and pass registry into ``python -m repro lint``. Exit
code 0 means clean (after inline suppressions), 1 means findings, 2 a
usage error; ``python -m repro lint src/repro tools benchmarks`` is the
CI gate. ``--explain RULE`` prints the long-form rationale a finding's
one-liner cannot carry. The engine and the passes are imported only
when the subcommand runs, so building the ``repro`` parser — as every
``repro serve`` process does — does not load the linter.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List

from repro.lint.findings import RULES, Finding

#: Explain-docs for findings the engine itself emits (no pass owns them).
_ENGINE_DOCS = {
    "PAR001": (
        "The engine could not parse this file as Python source\n"
        "(SyntaxError or undecodable bytes). The file is reported once\n"
        "and skipped, so one broken file cannot hide every other\n"
        "diagnostic in the run; the finding clears when the file\n"
        "parses again. PAR001 cannot be suppressed inline: comments in\n"
        "an unparseable file are unreachable."
    ),
}


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` subcommand's arguments to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--select",
        nargs="+",
        default=None,
        metavar="PASS|RULE",
        help="run only the named passes or rule prefixes "
        "(e.g. determinism UNI001 XUNI)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print the long-form explanation of one rule and exit",
    )
    parser.set_defaults(func=cmd_lint)


def _explain_docs() -> Dict[str, str]:
    """Rule id -> long-form doc, gathered from every shipped pass."""
    from repro.lint.passes import build_passes

    docs = dict(_ENGINE_DOCS)
    for instance in build_passes(None):
        docs.update(instance.docs)
    return docs


def _cmd_explain(rule: str) -> int:
    docs = _explain_docs()
    doc = docs.get(rule)
    if doc is None:
        known = ", ".join(sorted(RULES))
        print(f"error: unknown rule {rule!r} (known: {known})")
        return 2
    print(f"{rule}: {RULES.get(rule, '')}")
    print()
    print(doc)
    return 0


def _render_text(findings: List[Finding]) -> str:
    lines = [f.render() for f in findings]
    if findings:
        lines.append(f"{len(findings)} finding(s)")
    else:
        lines.append("clean")
    return "\n".join(lines)


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the linter; returns the process exit code."""
    from repro.lint.engine import default_target, lint_paths
    from repro.lint.passes import build_passes, selected_rules

    if args.list_rules:
        width = max(len(rule) for rule in RULES)
        for rule, description in sorted(RULES.items()):
            print(f"{rule:<{width}}  {description}")
        return 0
    if args.explain is not None:
        return _cmd_explain(args.explain)
    try:
        passes = build_passes(args.select)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    paths = [Path(p) for p in args.paths] or [default_target()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {[str(p) for p in missing]}")
        return 2
    stats: Dict[str, int] = {}
    findings = lint_paths(paths, passes, stats=stats)
    if args.select:
        # A pass may emit rules the selectors did not name; an
        # unparseable file is reported whatever was selected.
        rules = selected_rules(args.select)
        findings = [
            f for f in findings if f.rule in rules or f.rule == "PAR001"
        ]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in findings],
                    "unresolved_calls": stats.get("unresolved_calls"),
                },
                indent=2,
            )
        )
    else:
        print(_render_text(findings))
    return 1 if findings else 0
