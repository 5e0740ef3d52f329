"""Policy-conformance pass: plug-ins stay behind the policy API.

Gavel-style policy plug-ins only compose safely when every policy is a
well-behaved :class:`~repro.core.policies.base.SchedulingPolicy`: it
implements ``schedule`` and declares a ``name``, and it talks to the
rest of the system only through the public interface — never by
importing a simulator or poking another object's privates.

The pass runs in the whole-program phase: a policy class is any class
whose chain, with bases resolved across modules through the symbol
table, extends ``SchedulingPolicy``. A base outside the indexed
project (other than ``SchedulingPolicy`` itself) is assumed to conform.

* ``POL001`` — a concrete policy class (one declaring no abstract
  method) whose chain defines no ``schedule`` or no ``name``;
* ``POL002`` — an import of ``repro.sim`` (simulator internals) from
  policy code: modules under ``core/policies`` and any module that
  defines a policy class;
* ``POL003`` — in the same modules, an attribute access
  ``obj._private`` where ``obj`` is not ``self``/``cls`` (reaching
  across an encapsulation boundary);
* ``POL004`` — a policy class whose nearest ``heterogeneity_aware``
  declaration is ``True`` and whose chain never references
  ``gen_scores``: a heterogeneity-aware policy must publish its
  per-generation compute bounds through ``ScheduleContext.gen_scores``
  so decision provenance (``decision_job.f_star_gen_mbps``) can
  explain the placement;
* ``POL005`` — a policy class whose nearest ``pure_round``
  declaration is ``True`` and whose chain, or a project function its
  methods reach through the call graph, reads ``now_s`` or
  ``attained_service_s``: the scheduler reuses a pure policy's round
  whenever the job list, totals and effective bytes repeat, so the
  round must not depend on the clock or on attained service.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.lint.astutil import dotted_name
from repro.lint.engine import ProjectIndex, ProjectPass, SourceFile
from repro.lint.findings import Finding
from repro.lint.symbols import ClassSymbol, SymbolTable

#: The interface base class policies must extend.
_BASE_NAME = "SchedulingPolicy"


def _in_policies_package(src: SourceFile) -> bool:
    """True for files under ``core/policies``."""
    parts = src.path.parts
    for i in range(len(parts) - 1):
        if parts[i] == "core" and parts[i + 1] == "policies":
            return True
    return False


class PolicyConformancePass(ProjectPass):
    """Check SchedulingPolicy subclasses and policy-module hygiene."""

    name = "policy"
    rules = ("POL001", "POL002", "POL003", "POL004", "POL005")

    docs = {
        "POL001": (
            "A concrete SchedulingPolicy subclass whose class chain\n"
            "defines no schedule() or no `name` attribute. Policies\n"
            "compose (Gavel-style) only when every one implements the\n"
            "full interface. Bases are resolved across modules."
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
            "references gen_scores in its class chain. Heterogeneity-\n"
            "aware policies must publish per-generation compute bounds\n"
            "through ScheduleContext.gen_scores so decision provenance\n"
            "(decision_job.f_star_gen_mbps) can explain placements.\n"
            "Bases are resolved across modules."
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

    def run_project(self, index: ProjectIndex) -> List[Finding]:
        """Check every policy class, then every policy module."""
        table = index.table
        findings: List[Finding] = []
        policy_files: Set[str] = set()
        for qname in sorted(table.classes):
            symbol = table.classes[qname]
            ancestry = _ancestry(table, symbol)
            if not _is_policy(ancestry):
                continue
            policy_files.add(symbol.src.rel_path)
            if not _extends_foreign(table, ancestry):
                findings.extend(self._check_interface(symbol, ancestry))
                findings.extend(
                    self._check_het_publishes(symbol, ancestry)
                )
            findings.extend(self._check_pure(index, symbol, ancestry))
        for src in index.files:
            if src.rel_path in policy_files or _in_policies_package(src):
                findings.extend(self._check_imports(src))
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
        self, symbol: ClassSymbol, ancestry: List[ClassSymbol]
    ) -> List[Finding]:
        if _is_abstract(symbol):
            return []
        missing = []
        if not any("schedule" in c.methods for c in ancestry):
            missing.append("schedule()")
        if _nearest_constant(ancestry, "name") is _UNSET:
            missing.append("a `name` attribute")
        if not missing:
            return []
        return [
            symbol.src.finding(
                symbol.node,
                "POL001",
                f"policy class {symbol.node.name} is missing "
                f"{' and '.join(missing)}; every SchedulingPolicy must "
                "implement both",
            )
        ]

    def _check_het_publishes(
        self, symbol: ClassSymbol, ancestry: List[ClassSymbol]
    ) -> List[Finding]:
        if _nearest_constant(ancestry, "heterogeneity_aware") is not True:
            return []
        if any(_references_gen_scores(c.node) for c in ancestry):
            return []
        return [
            symbol.src.finding(
                symbol.node,
                "POL004",
                f"policy class {symbol.node.name} declares "
                "heterogeneity_aware = True but never publishes "
                "per-generation scores via ScheduleContext.gen_scores",
            )
        ]

    def _check_pure(
        self,
        index: ProjectIndex,
        symbol: ClassSymbol,
        ancestry: List[ClassSymbol],
    ) -> List[Finding]:
        if _nearest_constant(ancestry, "pure_round") is not True:
            return []
        reads = _impure_reads_reached(index, ancestry)
        if not reads:
            return []
        read = sorted(reads)
        where = sorted({w for name in read for w in reads[name]})
        return [
            symbol.src.finding(
                symbol.node,
                "POL005",
                f"policy class {symbol.node.name} declares "
                f"pure_round = True but reads {' and '.join(read)} "
                f"(in {', '.join(where)}), which a reused round "
                "never sees",
            )
        ]

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


def _nearest_constant(ancestry: List[ClassSymbol], attr: str):
    """The chain's nearest literal for ``attr``, as attribute lookup
    finds it; ``_UNSET`` when no class in the chain assigns it."""
    for symbol in ancestry:
        value = _class_constant(symbol.node, attr)
        if value is not _UNSET:
            return value
    return _UNSET


def _ancestry(table: SymbolTable, symbol: ClassSymbol) -> List[ClassSymbol]:
    """``symbol`` and its project ancestors, nearest first, cycle-safe.

    Breadth-first over bases resolved through each module's imports,
    like :meth:`SymbolTable.resolve_method`. ``SchedulingPolicy`` is
    the interface being checked, not an ancestor that implements it,
    so its defaults never count.
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
        queue.extend(
            base
            for base in table.base_classes(current)
            if base.node.name != _BASE_NAME
        )
    return out


def _is_policy(ancestry: List[ClassSymbol]) -> bool:
    """Does the chain extend ``SchedulingPolicy`` (indexed or not)?"""
    return any(
        name.split(".")[-1] == _BASE_NAME
        for symbol in ancestry
        for name in symbol.base_names
    )


def _extends_foreign(table: SymbolTable, ancestry: List[ClassSymbol]) -> bool:
    """Does the chain extend a class outside the index, other than
    ``SchedulingPolicy``? Such a base is assumed to conform."""
    return any(
        name.split(".")[-1] != _BASE_NAME
        and table.cls(table.resolve(symbol.module, name)) is None
        for symbol in ancestry
        for name in symbol.base_names
    )


def _is_abstract(symbol: ClassSymbol) -> bool:
    """Does the class body declare an ``abc.abstractmethod``?"""
    return any(
        (dotted_name(decorator) or "").split(".")[-1] == "abstractmethod"
        for method in symbol.methods.values()
        for decorator in method.node.decorator_list
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
