"""The ``repro lint`` subcommand.

Wires the engine, pass registry, baseline, and index cache into
``python -m repro lint``. Exit code 0 means clean (after suppressions
and the baseline); 1 means new findings — and, under ``--strict``, also
a stale baseline entry, so CI can guarantee the baseline only ever
shrinks. ``--format sarif`` prints a SARIF 2.1.0 log for code hosts,
``--explain RULE`` prints the long-form rationale a finding's one-liner
cannot carry, and the whole-program phase is memoized in
``.lint_cache.json`` (disable with ``--no-cache``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List

from repro.lint.baseline import Baseline
from repro.lint.cache import IndexCache, default_cache_path
from repro.lint.engine import default_target, lint_paths, repo_root
from repro.lint.findings import RULES, Finding
from repro.lint.passes import build_passes

#: Default baseline location, relative to the repository root.
DEFAULT_BASELINE = Path("tools") / "lint_baseline.json"

#: Explain-docs for findings the engine itself emits (no pass owns them).
_ENGINE_DOCS = {
    "PAR001": (
        "The engine could not parse this file as Python source\n"
        "(SyntaxError or undecodable bytes). The file is reported once\n"
        "and skipped, so one broken file cannot hide every other\n"
        "diagnostic in the run; the finding clears when the file\n"
        "parses again. PAR001 cannot be suppressed inline (comments in\n"
        "an unparseable file are unreachable) but can be baselined."
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
        choices=["text", "json", "sarif"],
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
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline JSON of tolerated findings "
        f"(default {DEFAULT_BASELINE} if it exists)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on stale baseline entries (CI mode)",
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
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the whole-program index cache (.lint_cache.json)",
    )
    parser.set_defaults(func=cmd_lint)


def _baseline_path(args: argparse.Namespace) -> Path:
    if args.baseline is not None:
        return Path(args.baseline)
    return repo_root() / DEFAULT_BASELINE


def _explain_docs() -> Dict[str, str]:
    """Rule id -> long-form doc, gathered from every shipped pass."""
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


def _render_text(
    findings: List[Finding], stale: list, strict: bool
) -> str:
    lines = [f.render() for f in findings]
    for key in stale:
        prefix = "error" if strict else "warning"
        lines.append(
            f"{prefix}: stale baseline entry {key[1]} for {key[0]} "
            f"({key[2]!r} no longer fires); remove it from the baseline"
        )
    if findings:
        lines.append(f"{len(findings)} finding(s)")
    else:
        lines.append("clean")
    return "\n".join(lines)


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the linter; returns the process exit code."""
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
    cache = None if args.no_cache else IndexCache(default_cache_path())
    stats: Dict[str, int] = {}
    findings = lint_paths(paths, passes, cache=cache, stats=stats)
    baseline_path = _baseline_path(args)
    if args.write_baseline:
        Baseline.save(baseline_path, findings)
        print(
            f"baseline: {len(findings)} finding(s) -> {baseline_path}"
        )
        return 0
    baseline = Baseline.load(baseline_path)
    new, stale = baseline.apply(findings)
    if args.format == "sarif":
        from repro.lint.sarif import to_sarif

        print(json.dumps(to_sarif(new), indent=2))
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in new],
                    "baselined": len(findings) - len(new),
                    "stale_baseline": [list(key) for key in stale],
                    "unresolved_calls": stats.get("unresolved_calls"),
                },
                indent=2,
            )
        )
    else:
        print(_render_text(new, stale, args.strict))
    if new:
        return 1
    if stale and args.strict:
        return 1
    return 0
