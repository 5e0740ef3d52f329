"""Policy-conformance pass: plug-ins stay behind the policy API.

Gavel-style policy plug-ins only compose safely when every policy is a
well-behaved :class:`~repro.core.policies.base.SchedulingPolicy`: it
implements ``schedule`` and declares a ``name``, and it talks to the
rest of the system only through the public interface — never by
importing a simulator or poking another object's privates.

The pass applies to modules under ``core/policies`` and to any module
that defines a ``SchedulingPolicy`` subclass:

* ``POL001`` — a policy class that neither defines nor locally inherits
  ``schedule`` / a ``name`` attribute;
* ``POL002`` — an import of ``repro.sim`` (simulator internals) from
  policy code;
* ``POL003`` — an attribute access ``obj._private`` where ``obj`` is
  not ``self``/``cls`` (reaching across an encapsulation boundary);
* ``POL004`` — a policy class declaring ``heterogeneity_aware = True``
  whose local class chain never references ``gen_scores``: a
  heterogeneity-aware policy must publish its per-generation compute
  bounds through ``ScheduleContext.gen_scores`` so decision provenance
  (``decision_job.f_star_gen_mbps``) can explain the placement;
* ``POL005`` — a policy class whose nearest ``pure_round``
  declaration is ``True`` and whose class chain, or a project function
  its methods reach, reads ``now_s`` or ``attained_service_s``: the
  scheduler reuses a pure policy's round whenever the job list, totals
  and effective bytes repeat, so the round must not depend on the
  clock or on attained service. This rule runs in the whole-program
  phase, so the declaration and the reads may sit in other modules
  than the class (bases are resolved through the symbol table, helpers
  through the call graph).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.astutil import dotted_name
from repro.lint.engine import (
    LintPass,
    ProjectIndex,
    ProjectPass,
    SourceFile,
)
from repro.lint.findings import Finding
from repro.lint.symbols import ClassSymbol, SymbolTable

#: The interface base class policies must extend.
_BASE_NAME = "SchedulingPolicy"


def _base_names(cls: ast.ClassDef) -> List[str]:
    """Final path components of a class's base names."""
    names = []
    for base in cls.bases:
        name = dotted_name(base)
        if name is not None:
            names.append(name.split(".")[-1])
    return names


def _in_policies_package(src: SourceFile) -> bool:
    """True for files under ``core/policies``."""
    parts = src.path.parts
    for i in range(len(parts) - 1):
        if parts[i] == "core" and parts[i + 1] == "policies":
            return True
    return False


class PolicyConformancePass(LintPass, ProjectPass):
    """Check SchedulingPolicy subclasses and policy-module hygiene.

    ``POL001``–``POL004`` are per-file checks; ``POL005`` runs over the
    whole-program index (:meth:`run_project`).
    """

    name = "policy"
    rules = ("POL001", "POL002", "POL003", "POL004", "POL005")

    docs = {
        "POL001": (
            "A SchedulingPolicy subclass that neither defines nor\n"
            "locally inherits schedule() and a `name` attribute.\n"
            "Policies compose (Gavel-style) only when every one\n"
            "implements the full interface."
        ),
        "POL002": (
            "Policy code imports repro.sim (simulator internals).\n"
            "Policies must see the cluster only through\n"
            "ScheduleContext; importing a simulator couples the policy\n"
            "to one backend and breaks the batch/serve equivalence."
        ),
        "POL003": (
            "Policy code reads another object's _private attribute\n"
            "(receiver is not self/cls). Reach-through makes the\n"
            "private state load-bearing; add a public accessor to the\n"
            "interface instead."
        ),
        "POL004": (
            "A policy declaring heterogeneity_aware = True never\n"
            "references gen_scores. Heterogeneity-aware policies must\n"
            "publish per-generation compute bounds through\n"
            "ScheduleContext.gen_scores so decision provenance\n"
            "(decision_job.f_star_gen_mbps) can explain placements."
        ),
        "POL005": (
            "A policy declaring pure_round = True reads now_s or\n"
            "attained_service_s, in its class chain or in a project\n"
            "function its methods reach. The scheduler keeps a pure\n"
            "policy's allocation in force whenever the job list,\n"
            "totals and effective bytes repeat, so its round must not\n"
            "depend on the clock or on attained service. Bases and\n"
            "declarations are resolved across modules."
        ),
    }

    def run(self, src: SourceFile) -> List[Finding]:
        """Scan the module if it is policy code; no-op otherwise."""
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in src.tree.body
            if isinstance(node, ast.ClassDef)
        }
        policy_classes = _policy_closure(classes)
        if not policy_classes and not _in_policies_package(src):
            return []
        findings: List[Finding] = []
        findings.extend(self._check_imports(src))
        for name in sorted(policy_classes):
            findings.extend(
                self._check_interface(src, classes, classes[name])
            )
            findings.extend(
                self._check_het_publishes(src, classes, classes[name])
            )
        findings.extend(self._check_private_access(src))
        return findings

    def _check_imports(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            module = None
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[:2] == ["repro", "sim"]:
                        module = alias.name
                        break
            if module and module.split(".")[:2] == ["repro", "sim"]:
                findings.append(
                    src.finding(
                        node,
                        "POL002",
                        f"policy code imports {module!r}; policies must "
                        "see the cluster only through ScheduleContext "
                        "and the estimator",
                    )
                )
        return findings

    def _check_interface(
        self,
        src: SourceFile,
        classes: Dict[str, ast.ClassDef],
        cls: ast.ClassDef,
    ) -> List[Finding]:
        missing = []
        if not _chain_defines(classes, cls, _defines_schedule):
            missing.append("schedule()")
        if not _chain_defines(classes, cls, _defines_name):
            missing.append("a `name` attribute")
        if not missing:
            return []
        return [
            src.finding(
                cls,
                "POL001",
                f"policy class {cls.name} is missing {' and '.join(missing)}"
                "; every SchedulingPolicy must implement both",
            )
        ]

    def _check_het_publishes(
        self,
        src: SourceFile,
        classes: Dict[str, ast.ClassDef],
        cls: ast.ClassDef,
    ) -> List[Finding]:
        ancestry = _local_ancestry(classes, cls)
        if not any(_declares_het_aware(c) for c in ancestry):
            return []
        if any(_references_gen_scores(c) for c in ancestry):
            return []
        return [
            src.finding(
                cls,
                "POL004",
                f"policy class {cls.name} declares "
                "heterogeneity_aware = True but never publishes "
                "per-generation scores via ScheduleContext.gen_scores",
            )
        ]

    def run_project(self, index: ProjectIndex) -> List[Finding]:
        """``POL005`` over every policy class in the index."""
        table = index.table
        findings: List[Finding] = []
        for qname in sorted(table.classes):
            symbol = table.classes[qname]
            ancestry = _ancestry(table, symbol)
            if not _is_policy(ancestry):
                continue
            # The nearest declaration wins, as attribute lookup does.
            declared = _UNSET
            for ancestor in ancestry:
                declared = _class_constant(ancestor.node, "pure_round")
                if declared is not _UNSET:
                    break
            if declared is not True:
                continue
            reads = _impure_reads_reached(index, ancestry)
            if not reads:
                continue
            read = sorted(reads)
            where = sorted({w for name in read for w in reads[name]})
            findings.append(
                symbol.src.finding(
                    symbol.node,
                    "POL005",
                    f"policy class {symbol.node.name} declares "
                    f"pure_round = True but reads {' and '.join(read)} "
                    f"(in {', '.join(where)}), which a reused round "
                    "never sees",
                )
            )
        return findings

    def _check_private_access(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in (
                "self",
                "cls",
            ):
                continue
            # ``super()._x`` is still self-dispatch, not a reach into
            # another object's internals.
            if (
                isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super"
            ):
                continue
            findings.append(
                src.finding(
                    node,
                    "POL003",
                    f"access to private attribute {attr!r} of "
                    f"{dotted_name(receiver) or 'an expression'}; "
                    "policies must use public interfaces only",
                )
            )
        return findings


def _policy_closure(classes: Dict[str, ast.ClassDef]) -> Set[str]:
    """Names of classes whose local base chain reaches SchedulingPolicy."""
    policies: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, cls in classes.items():
            if name in policies:
                continue
            for base in _base_names(cls):
                if base == _BASE_NAME or base in policies:
                    policies.add(name)
                    changed = True
                    break
    return policies


def _chain_defines(
    classes: Dict[str, ast.ClassDef],
    cls: ast.ClassDef,
    predicate,
    seen: Optional[Set[str]] = None,
) -> bool:
    """Does ``cls`` or a module-local ancestor satisfy ``predicate``?

    Non-local bases other than ``SchedulingPolicy`` are assumed to
    provide the interface (cross-file resolution is out of scope and
    permissiveness avoids false positives).
    """
    seen = seen or set()
    if cls.name in seen:
        return False
    seen.add(cls.name)
    if predicate(cls):
        return True
    for base in _base_names(cls):
        if base == _BASE_NAME:
            continue
        parent = classes.get(base)
        if parent is None:
            return True  # imported base: assume conformant
        if _chain_defines(classes, parent, predicate, seen):
            return True
    return False


def _local_ancestry(
    classes: Dict[str, ast.ClassDef], cls: ast.ClassDef
) -> List[ast.ClassDef]:
    """``cls`` plus every module-local ancestor, cycle-safe."""
    out: List[ast.ClassDef] = []
    stack = [cls]
    seen: Set[str] = set()
    while stack:
        node = stack.pop()
        if node.name in seen:
            continue
        seen.add(node.name)
        out.append(node)
        for base in _base_names(node):
            parent = classes.get(base)
            if parent is not None:
                stack.append(parent)
    return out


#: :func:`_class_constant`'s answer for a class that assigns no value.
_UNSET = object()

#: The round inputs a ``pure_round`` policy must not read.
_IMPURE_INPUTS = ("now_s", "attained_service_s")


def _class_constant(cls: ast.ClassDef, attr: str):
    """The constant the class body last assigns to ``attr``.

    ``_UNSET`` when the body assigns nothing; ``None`` when the value
    is not a literal constant.
    """
    found = _UNSET
    for item in cls.body:
        if isinstance(item, ast.Assign):
            targets = item.targets
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            targets = [item.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == attr for t in targets):
            value = item.value
            found = value.value if isinstance(value, ast.Constant) else None
    return found


def _declares_het_aware(cls: ast.ClassDef) -> bool:
    """Does the class body set ``heterogeneity_aware = True``?"""
    return _class_constant(cls, "heterogeneity_aware") is True


def _ancestry(table: SymbolTable, symbol: ClassSymbol) -> List[ClassSymbol]:
    """``symbol`` and its project ancestors, nearest first, cycle-safe.

    Breadth-first over bases resolved through each module's imports,
    like :meth:`SymbolTable.resolve_method`.
    """
    out: List[ClassSymbol] = []
    seen: Set[str] = set()
    queue = [symbol]
    while queue:
        current = queue.pop(0)
        if current.qname in seen:
            continue
        seen.add(current.qname)
        out.append(current)
        queue.extend(table.base_classes(current))
    return out


def _is_policy(ancestry: List[ClassSymbol]) -> bool:
    """Does the chain extend ``SchedulingPolicy`` (indexed or not)?"""
    return any(
        name.split(".")[-1] == _BASE_NAME
        for symbol in ancestry
        for name in symbol.base_names
    )


def _impure_reads_reached(
    index: ProjectIndex, ancestry: List[ClassSymbol]
) -> Dict[str, Set[str]]:
    """Impure input -> where it is read: the chain's class bodies and
    every project function their methods reach through the call
    graph."""
    reads: Dict[str, Set[str]] = {}
    chain = {symbol.qname for symbol in ancestry}
    for symbol in ancestry:
        for name in _impure_reads(symbol.node):
            reads.setdefault(name, set()).add(symbol.qname)
    seen: Set[str] = set()
    stack = [
        method.qname
        for symbol in ancestry
        for method in symbol.methods.values()
    ]
    while stack:
        caller = stack.pop()
        if caller in seen:
            continue
        seen.add(caller)
        for edge in index.graph.callees(caller):
            callee = index.table.function(edge.callee)
            if callee is None or callee.qname in seen:
                continue
            # The chain's own methods were walked with their class.
            if callee.class_qname not in chain:
                for name in _impure_reads(callee.node):
                    reads.setdefault(name, set()).add(callee.qname)
            stack.append(callee.qname)
    return reads


def _impure_reads(tree: ast.AST) -> Set[str]:
    """The :data:`_IMPURE_INPUTS` read anywhere under ``tree``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _IMPURE_INPUTS:
            read.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in _IMPURE_INPUTS:
            read.add(node.id)
    return read


def _references_gen_scores(cls: ast.ClassDef) -> bool:
    """Does anything in the class body touch ``gen_scores``?"""
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and node.attr == "gen_scores":
            return True
        if isinstance(node, ast.Name) and node.id == "gen_scores":
            return True
    return False


def _defines_schedule(cls: ast.ClassDef) -> bool:
    """Does the class body define a ``schedule`` method?"""
    return any(
        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name == "schedule"
        for item in cls.body
    )


def _defines_name(cls: ast.ClassDef) -> bool:
    """Does the class body assign a ``name`` class attribute?"""
    for item in cls.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and target.id == "name":
                    return True
        elif isinstance(item, ast.AnnAssign):
            target = item.target
            if isinstance(target, ast.Name) and target.id == "name":
                return True
    return False
