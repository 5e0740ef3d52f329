"""The lint engine: source discovery, suppressions, and the pass runner.

The engine runs in two phases. Phase 1 finds ``.py`` files, parses each
one once into an :class:`ast.Module`, and hands the parsed
:class:`SourceFile` to every registered per-file pass
(:class:`LintPass`). Phase 2 — only when whole-program passes are
selected — indexes every file into a project-wide symbol table and call
graph (:class:`ProjectIndex`) and runs each :class:`ProjectPass` over
the index, so cross-module facts (a unit carried through a helper's
return value, an event emitted through an in-scope wrapper) are
visible. All analysis lives in the passes (:mod:`repro.lint.passes`);
findings from both phases are filtered through the same
inline-suppression table.

Suppression syntax
------------------
``# lint: disable=RULE`` (or ``disable=RULE1,RULE2`` / ``disable=all``)
on the offending line silences those rules for that line; a
comment-only line applies to the next code line *and the full span of
the statement starting there*, so multi-line statements can carry an
explanation (further comment lines may sit between the disable comment
and the code)::

    # Wall-clock is intentional here: latency_ms measures real time.
    # lint: disable=DET003
    t0 = time.perf_counter()
"""

from __future__ import annotations

import abc
import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.findings import Finding

#: ``# lint: disable=DET001,UNI002`` — case-sensitive rule ids, or
#: the wildcard ``all``.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Wildcard accepted in a disable list.
_ALL = "all"


def default_target() -> Path:
    """The tree linted when no paths are given: the ``repro`` package."""
    return Path(__file__).resolve().parent.parent


def repo_root() -> Path:
    """Best-effort repository root (``src/repro`` -> two levels up)."""
    return default_target().parent.parent


def _statement_spans(tree: ast.AST) -> Dict[int, int]:
    """Map each statement's start line to the last line it shields.

    Simple statements shield through ``end_lineno`` so a finding
    anchored on a later physical line of a multi-line call is still
    covered. Compound statements (``if``/``for``/``def``/...) shield
    only their header — through the line before the first body
    statement — because a block-level disable is deliberately not a
    thing (see ``docs/LINT.md``). Several statements starting on one
    line (``if x: y = 1``) take the widest span.
    """
    spans: Dict[int, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = getattr(node, "lineno", None)
        end = getattr(node, "end_lineno", None) or start
        if start is None:
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            first = getattr(body[0], "lineno", start)
            end = max(start, first - 1)
        spans[start] = max(spans.get(start, start), end)
    return spans


def _parse_suppressions(
    lines: Sequence[str], tree: Optional[ast.AST] = None
) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids suppressed on them."""
    spans = _statement_spans(tree) if tree is not None else {}
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        rules = {
            token.strip()
            for token in match.group(1).split(",")
            if token.strip()
        }
        target = lineno
        if line.lstrip().startswith("#"):
            # A standalone comment shields the next code line: walk
            # past further comment lines (an explanation may follow the
            # disable) and blank lines.
            target = lineno + 1
            while target <= len(lines):
                stripped = lines[target - 1].lstrip()
                if stripped and not stripped.startswith("#"):
                    break
                target += 1
        # Shield the whole statement starting at the target line, so a
        # finding anchored on a later line of a multi-line statement
        # does not escape the suppression.
        last = spans.get(target, target)
        for covered in range(target, last + 1):
            table.setdefault(covered, set()).update(rules)
    return table


class SourceFile:
    """One parsed source file plus its inline-suppression table."""

    def __init__(self, path: Path, display_root: Path) -> None:
        self.path = path
        self.rel_path = _display_path(path, display_root)
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.tree = ast.parse(self.text, filename=str(path))
        self.suppressions = _parse_suppressions(self.lines, self.tree)

    def is_suppressed(self, line: int, rule: str) -> bool:
        """Whether ``rule`` is disabled on ``line`` by an inline comment."""
        rules = self.suppressions.get(line)
        if not rules:
            return False
        return rule in rules or _ALL in rules

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """Build a finding anchored at ``node``'s source line."""
        return Finding(
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            rule=rule,
            message=message,
        )


def _display_path(path: Path, display_root: Path) -> str:
    """Repo-relative POSIX path when possible, absolute otherwise."""
    resolved = path.resolve()
    for root in (display_root.resolve(), Path.cwd().resolve()):
        try:
            return resolved.relative_to(root).as_posix()
        except ValueError:
            continue
    return resolved.as_posix()


class LintPass(abc.ABC):
    """Base class for one per-file analysis pass.

    A pass declares the rule ids it can emit (``rules``), a
    rule-id-keyed ``docs`` table rendered by ``lint --explain``, and
    implements :meth:`run`, returning findings for one file. Passes
    must be stateless across files so the engine can run them in any
    order.
    """

    #: Short machine name used by ``--select`` (e.g. ``determinism``).
    name: str = "pass"

    #: The rule ids this pass can emit.
    rules: Sequence[str] = ()

    #: Rule id -> multi-line explanation for ``lint --explain RULE``.
    docs: Dict[str, str] = {}

    @abc.abstractmethod
    def run(self, src: SourceFile) -> List[Finding]:
        """Analyse one file and return its findings (may be empty)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class ProjectIndex:
    """The whole-program index handed to every :class:`ProjectPass`.

    Carries the parsed files, the symbol table, and the call graph;
    built once per run (phase 1) and shared by all project passes
    (phase 2). Construction is lazy-imported so per-file-only runs
    never pay for it.
    """

    def __init__(self, files: Sequence[SourceFile]) -> None:
        from repro.lint.callgraph import CallGraph
        from repro.lint.symbols import SymbolTable

        self.files: List[SourceFile] = list(files)
        self.by_rel_path: Dict[str, SourceFile] = {
            src.rel_path: src for src in self.files
        }
        self.table = SymbolTable.build(self.files)
        self.graph = CallGraph.build(self.table)

    def source(self, rel_path: str) -> Optional[SourceFile]:
        """The parsed file displayed as ``rel_path``, if indexed."""
        return self.by_rel_path.get(rel_path)


class ProjectPass(abc.ABC):
    """Base class for one whole-program analysis pass (phase 2).

    Unlike :class:`LintPass`, a project pass sees the entire
    :class:`ProjectIndex` at once and may report findings in any file.
    Findings are still anchored to one ``(path, line)`` and filtered
    through that file's inline suppressions.
    """

    #: Short machine name used by ``--select`` (e.g. ``xuni``).
    name: str = "project-pass"

    #: The rule ids this pass can emit.
    rules: Sequence[str] = ()

    #: Rule id -> multi-line explanation for ``lint --explain RULE``.
    docs: Dict[str, str] = {}

    @abc.abstractmethod
    def run_project(self, index: ProjectIndex) -> List[Finding]:
        """Analyse the whole index and return findings (may be empty)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def discover_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    Directories are walked recursively for ``*.py``; ``__pycache__``
    and hidden directories are skipped.
    """
    seen: Set[Path] = set()
    result: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            parts = candidate.parts
            if "__pycache__" in parts:
                continue
            if any(p.startswith(".") and len(p) > 1 for p in parts[1:]):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                result.append(candidate)
    return result


def lint_paths(
    paths: Sequence[Path],
    passes: Sequence[object],
    display_root: Path = None,
    stats: Optional[Dict[str, int]] = None,
) -> List[Finding]:
    """Run ``passes`` over ``paths`` and return sorted, unsuppressed findings.

    ``passes`` may mix per-file :class:`LintPass` and whole-program
    :class:`ProjectPass` instances; the engine partitions them, runs
    phase 1 (per-file) over each file, then — if any project pass is
    selected — builds the :class:`ProjectIndex` and runs phase 2.

    When ``stats`` is a dict, phase 2 records its soundness gap in it
    (``unresolved_calls``: call sites the graph could not resolve), so
    callers can report how much of the program the analysis proved.

    Unparseable files yield a single ``PAR001`` finding instead of
    aborting the run, so one syntax error cannot hide every other
    diagnostic.
    """
    if display_root is None:
        display_root = repo_root()
    file_passes = [p for p in passes if isinstance(p, LintPass)]
    project_passes = [p for p in passes if isinstance(p, ProjectPass)]
    findings: List[Finding] = []
    sources: List[SourceFile] = []
    for path in discover_files(paths):
        try:
            src = SourceFile(path, display_root)
        except (SyntaxError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(
                    path=_display_path(path, display_root),
                    line=getattr(exc, "lineno", None) or 1,
                    rule="PAR001",
                    message=f"cannot parse: {exc.__class__.__name__}",
                )
            )
            continue
        sources.append(src)
        for lint_pass in file_passes:
            for finding in lint_pass.run(src):
                if not src.is_suppressed(finding.line, finding.rule):
                    findings.append(finding)
    if project_passes:
        findings.extend(
            _run_project_passes(sources, project_passes, stats)
        )
    return sorted(findings)


def _run_project_passes(
    sources: Sequence[SourceFile],
    project_passes: Sequence[ProjectPass],
    stats: Optional[Dict[str, int]] = None,
) -> List[Finding]:
    """Phase 2: build the index and run the whole-program passes."""
    index = ProjectIndex(sources)
    if stats is not None:
        stats["unresolved_calls"] = len(index.graph.unresolved)
    findings: List[Finding] = []
    for project_pass in project_passes:
        for finding in project_pass.run_project(index):
            src = index.source(finding.path)
            if src is not None and src.is_suppressed(
                finding.line, finding.rule
            ):
                continue
            findings.append(finding)
    return findings
