"""Interprocedural unit inference: MB, MB/s, seconds — across calls.

The per-file units pass (``UNI001``/``UNI002``) polices the *spelling*
of the convention: no magic conversion constants, no non-canonical
suffixes in public signatures. It cannot see a value that is *born* in
milliseconds and *consumed* as seconds two modules away. The ``XUNI``
rules infer units and check their flow:

* a name carries the unit its suffix declares (``_mb`` -> MB,
  ``_mbps`` -> MB/s, ``_ms`` -> ms, ``_s`` -> s), whether it is a
  parameter, a local, or an attribute;
* a call to a :mod:`repro.units` helper has a known parameter unit and
  a known return unit (``units.gb`` takes GB, returns MB);
* a project function whose every ``return`` has one consistent
  inferred unit exports that unit to its callers (computed as a global
  fixpoint, so helpers that wrap helpers still resolve);
* arithmetic follows dimensions: ``MB/s * s -> MB``, ``MB / s ->
  MB/s``, ``MB / (MB/s) -> s``; adding or comparing two *different*
  known units is the bug ``XUNI001`` reports, and passing a value of
  one known unit where the callee's parameter declares another is
  ``XUNI002``.

Anything the inference cannot prove stays unitless and is never
flagged: a bare literal, an unknown call, a name without a suffix. A
name assigned two different units in one function is treated as
ambiguous and dropped. ``repro/units.py`` itself — whose whole job is
mixing units — is exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.astutil import dotted_name
from repro.lint.callgraph import iter_contexts
from repro.lint.engine import Finding, ProjectIndex, ProjectPass
from repro.lint.symbols import FunctionSymbol

#: Canonical-and-boundary units the inference can name.
#: Suffix order matters: longest first so ``latency_ms`` is ms, not s.
_SUFFIX_UNITS = (
    ("_mbps", "MB/s"),
    ("_mb", "MB"),
    ("_ms", "ms"),
    ("_s", "s"),
)

#: ``repro.units`` helper -> (parameter unit, return unit).
_HELPER_UNITS = {
    "gb": ("GB", "MB"),
    "tb": ("TB", "MB"),
    "mb_to_gb": ("MB", "GB"),
    "mb_to_tb": ("MB", "TB"),
    "gbps": ("Gbps", "MB/s"),
    "mbps_to_gbps": ("MB/s", "Gbps"),
    "minutes": ("min", "s"),
    "hours": ("h", "s"),
    "days": ("d", "s"),
    "weeks": ("wk", "s"),
    "seconds_to_minutes": ("s", "min"),
    "seconds_to_ms": ("s", "ms"),
}

_UNITS_MODULE = "repro.units"

#: Builtins that pass their argument's unit through unchanged.
_UNIT_PRESERVING = ("min", "max", "abs", "sum", "float", "round")

#: A name bound to two different units: poisoned, never flagged.
_CONFLICT = "<conflict>"

#: Fixpoint iterations for cross-function return-unit propagation.
_FIXPOINT_ROUNDS = 3


class CrossUnitsPass(ProjectPass):
    """Infer units through assignments, returns, and call bindings."""

    name = "xuni"
    rules = ("XUNI001", "XUNI002")

    docs = {
        "XUNI001": (
            "Two expressions with different inferred units are added,\n"
            "subtracted, compared, or one is assigned to a name whose\n"
            "suffix declares the other unit (a seconds value stored in\n"
            "*_ms, an MB/s value added to an MB value). Units come from\n"
            "name suffixes (_mb/_mbps/_ms/_s), repro.units helper\n"
            "signatures, and return-unit inference across project\n"
            "calls; dimensional arithmetic (MB/s * s -> MB, MB / s ->\n"
            "MB/s) is understood and not flagged. Fix by converting\n"
            "with the named repro.units helper, or suppress the line\n"
            "with a justification if the mix is intentional."
        ),
        "XUNI002": (
            "A call passes a value of one inferred unit where the\n"
            "callee's parameter declares another — e.g. a *_mb local\n"
            "passed to units.gb() (which takes GB), or a *_ms value\n"
            "passed to a project function's *_s parameter. Bindings\n"
            "cover positional and keyword arguments; methods drop\n"
            "self/cls. Convert at the call site with the matching\n"
            "repro.units helper."
        ),
    }

    def run_project(self, index: ProjectIndex) -> List[Finding]:
        returns, envs = _infer_return_units(index)
        findings: List[Finding] = []
        for mod in index.table.modules.values():
            if mod.name == _UNITS_MODULE:
                continue
            for qname, _class_qname, node in iter_contexts(
                mod.name, mod.src
            ):
                checker = _Checker(index, mod.name, mod.src, returns)
                checker.check(node, envs.get(node))
                findings.extend(checker.findings)
        return findings


def _suffix_unit(name: Optional[str]) -> Optional[str]:
    if not name:
        return None
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix) and len(name) > len(suffix):
            return unit
    return None


def _param_names(symbol: FunctionSymbol) -> List[str]:
    """Bindable parameter names, with self/cls dropped for methods."""
    args = symbol.node.args
    names = [a.arg for a in args.posonlyargs] + [
        a.arg for a in args.args
    ]
    if symbol.class_qname is not None and names and names[0] in (
        "self",
        "cls",
    ):
        names = names[1:]
    return names + [a.arg for a in args.kwonlyargs]


class _ContextInfo:
    """Pre-walked pieces of one context the fixpoint reuses per round."""

    def __init__(self, context: ast.AST) -> None:
        self.context = context
        #: [(name-target, value)] from Assign/AnnAssign, in walk order.
        self.assigns: List[Tuple[ast.Name, ast.AST]] = []
        #: non-bare ``return`` value expressions.
        self.returns: List[ast.AST] = []
        #: param name -> suffix-declared unit.
        self.param_env: Dict[str, str] = {}
        args = getattr(context, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                unit = _suffix_unit(arg.arg)
                if unit is not None:
                    self.param_env[arg.arg] = unit
        for node in ast.walk(context):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.Return) and node.value is not None:
                self.returns.append(node.value)
                continue
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.assigns.append((target, value))


def _infer_return_units(
    index: ProjectIndex,
) -> Tuple[Dict[str, str], Dict[ast.AST, Dict[str, str]]]:
    """Fixpoint over project functions: qname -> consistent return unit.

    Also returns the final name->unit env per context (keyed by the
    context node itself), so the checking walk does not re-derive it.
    A module-body context is a fresh holder node per
    :func:`iter_contexts` call, so its env is rebuilt at check time.
    """
    infos: List[Tuple[Optional[str], str, _ContextInfo]] = []
    for mod in index.table.modules.values():
        if mod.name == _UNITS_MODULE:
            continue
        for qname, _class_qname, node in iter_contexts(
            mod.name, mod.src
        ):
            symbol = index.table.functions.get(qname)
            exported = (
                qname if symbol is not None and symbol.node is node else None
            )
            infos.append((exported, mod.name, _ContextInfo(node)))
    returns: Dict[str, str] = {}
    envs: Dict[ast.AST, Dict[str, str]] = {}
    for _ in range(_FIXPOINT_ROUNDS):
        changed = False
        for qname, module, info in infos:
            env = _build_env(index, module, info, returns)
            envs[info.context] = env
            if qname is None:
                continue
            unit = _return_unit(index, module, info, env, returns)
            if unit is not None and returns.get(qname) != unit:
                returns[qname] = unit
                changed = True
        if not changed:
            break
    return returns, envs


def _return_unit(
    index: ProjectIndex,
    module: str,
    info: "_ContextInfo",
    env: Dict[str, str],
    returns: Dict[str, str],
) -> Optional[str]:
    unit: Optional[str] = None
    for value in info.returns:
        got = _unit_of(index, module, value, env, returns)
        if got is None:
            return None  # one unproven return poisons the whole unit.
        if unit is not None and got != unit:
            return None
        unit = got
    return unit


def _build_env(
    index: ProjectIndex,
    module: str,
    info: "_ContextInfo",
    returns: Dict[str, str],
) -> Dict[str, str]:
    """Name -> unit for one context: params, then assignment inference.

    Two rounds because assignment order is arbitrary under ``ast.walk``
    and one local may feed another; a name bound to conflicting units is
    poisoned.
    """
    env: Dict[str, str] = dict(info.param_env)
    for _ in range(2):
        for target, value in info.assigns:
            unit = _suffix_unit(target.id) or _unit_of(
                index, module, value, env, returns
            )
            if unit is None:
                continue
            known = env.get(target.id)
            if known is not None and known != unit:
                env[target.id] = _CONFLICT
            elif known != _CONFLICT:
                env[target.id] = unit
    return {k: v for k, v in env.items() if v != _CONFLICT}


def _unit_of(
    index: ProjectIndex,
    module: str,
    node: ast.AST,
    env: Dict[str, str],
    returns: Dict[str, str],
) -> Optional[str]:
    if isinstance(node, ast.Name):
        return env.get(node.id) or _suffix_unit(node.id)
    if isinstance(node, ast.Attribute):
        return _suffix_unit(node.attr)
    if isinstance(node, ast.UnaryOp):
        return _unit_of(index, module, node.operand, env, returns)
    if isinstance(node, ast.IfExp) and _is_min_max_idiom(node):
        # ``b if b < a else a`` is ``min(a, b)``: its unit is min's.
        branches = (node.body, node.orelse)
        return _shared_unit(index, module, branches, env, returns)
    if isinstance(node, ast.IfExp):
        a = _unit_of(index, module, node.body, env, returns)
        b = _unit_of(index, module, node.orelse, env, returns)
        return a if a == b else None
    if isinstance(node, ast.BinOp):
        left = _unit_of(index, module, node.left, env, returns)
        right = _unit_of(index, module, node.right, env, returns)
        return _combine(node.op, left, right)
    if isinstance(node, ast.Call):
        return _call_unit(index, module, node, env, returns)
    return None


def _shared_unit(
    index: ProjectIndex,
    module: str,
    nodes: Sequence[ast.AST],
    env: Dict[str, str],
    returns: Dict[str, str],
) -> Optional[str]:
    """The one known unit among ``nodes``, as ``min``/``max`` pass it."""
    units = {_unit_of(index, module, n, env, returns) for n in nodes}
    units.discard(None)
    return units.pop() if len(units) == 1 else None


def _is_min_max_idiom(node: ast.IfExp) -> bool:
    """``b if b < a else a`` / ``b if b > a else a``: the test compares
    exactly the two branches."""
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Lt, ast.Gt))
        and ast.dump(test.left) == ast.dump(node.body)
        and ast.dump(test.comparators[0]) == ast.dump(node.orelse)
    )


def _combine(
    op: ast.operator, left: Optional[str], right: Optional[str]
) -> Optional[str]:
    if isinstance(op, (ast.Add, ast.Sub)):
        return left if left is not None and left == right else None
    if isinstance(op, ast.Mult):
        pair = {left, right}
        if pair == {"MB/s", "s"}:
            return "MB"
        return None
    if isinstance(op, ast.Div):
        if left == "MB" and right == "s":
            return "MB/s"
        if left == "MB" and right == "MB/s":
            return "s"
        return None
    return None


def _call_unit(
    index: ProjectIndex,
    module: str,
    node: ast.Call,
    env: Dict[str, str],
    returns: Dict[str, str],
) -> Optional[str]:
    name = dotted_name(node.func)
    if name is None:
        return None
    if name in _UNIT_PRESERVING and "." not in name:
        return _shared_unit(index, module, node.args, env, returns)
    resolved = index.table.resolve(module, name)
    if resolved is None:
        return None
    helper = _helper_for(resolved)
    if helper is not None:
        return helper[1]
    return returns.get(resolved)


def _helper_for(qname: str) -> Optional[Tuple[str, str]]:
    prefix = _UNITS_MODULE + "."
    if qname.startswith(prefix):
        return _HELPER_UNITS.get(qname[len(prefix):])
    return None


class _Checker:
    """Walk one context with a fixed env and collect XUNI findings."""

    def __init__(
        self,
        index: ProjectIndex,
        module: str,
        src,
        returns: Dict[str, str],
    ) -> None:
        self.index = index
        self.module = module
        self.src = src
        self.returns = returns
        self.findings: List[Finding] = []

    def check(
        self, context: ast.AST, env: Optional[Dict[str, str]] = None
    ) -> None:
        if env is None:
            env = _build_env(
                self.index,
                self.module,
                _ContextInfo(context),
                self.returns,
            )
        self.env = env
        for node in ast.walk(context):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                self._check_mix(node, node.left, node.right, "arithmetic")
            elif isinstance(node, ast.Compare):
                prev = node.left
                for comparator in node.comparators:
                    self._check_mix(node, prev, comparator, "comparison")
                    prev = comparator
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._check_assign(node)
            elif isinstance(node, ast.Call):
                self._check_call(node)

    def _unit(self, node: ast.AST) -> Optional[str]:
        return _unit_of(
            self.index, self.module, node, self.env, self.returns
        )

    def _check_mix(
        self, anchor: ast.AST, left: ast.AST, right: ast.AST, what: str
    ) -> None:
        a, b = self._unit(left), self._unit(right)
        if a is None or b is None or a == b:
            return
        self.findings.append(
            Finding(
                path=self.src.rel_path,
                line=getattr(anchor, "lineno", 1),
                rule="XUNI001",
                message=(
                    f"mixed-unit {what}: {a} vs {b}; convert with the "
                    "matching repro.units helper"
                ),
            )
        )

    def _check_assign(self, node: ast.AST) -> None:
        value = node.value
        if value is None:
            return
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        got = self._unit(value)
        if got is None:
            return
        for target in targets:
            declared = None
            if isinstance(target, ast.Name):
                declared = _suffix_unit(target.id)
            elif isinstance(target, ast.Attribute):
                declared = _suffix_unit(target.attr)
            if declared is not None and declared != got:
                self.findings.append(
                    Finding(
                        path=self.src.rel_path,
                        line=node.lineno,
                        rule="XUNI001",
                        message=(
                            f"{got} value assigned to a name declaring "
                            f"{declared}; convert with the matching "
                            "repro.units helper"
                        ),
                    )
                )

    def _check_call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        resolved = self.index.table.resolve(self.module, name)
        if resolved is None:
            return
        helper = _helper_for(resolved)
        if helper is not None:
            expected = helper[0]
            for arg in node.args[:1]:
                got = self._unit(arg)
                if got is not None and got != expected:
                    self._arg_finding(
                        node, resolved, "value", got, expected
                    )
            return
        symbol = self.index.table.function(resolved)
        if symbol is None:
            klass = self.index.table.cls(resolved)
            if klass is None:
                return
            symbol = self.index.table.resolve_method(
                klass.qname, "__init__"
            )
            if symbol is None:
                return
        params = _param_names(symbol)
        bindings: List[Tuple[str, ast.AST]] = list(
            zip(params, node.args)
        )
        by_name = {p: p for p in params}
        for kw in node.keywords:
            if kw.arg is not None and kw.arg in by_name:
                bindings.append((kw.arg, kw.value))
        for param, arg in bindings:
            expected = _suffix_unit(param)
            if expected is None:
                continue
            got = self._unit(arg)
            if got is not None and got != expected:
                self._arg_finding(node, resolved, param, got, expected)

    def _arg_finding(
        self,
        node: ast.Call,
        callee: str,
        param: str,
        got: str,
        expected: str,
    ) -> None:
        self.findings.append(
            Finding(
                path=self.src.rel_path,
                line=node.lineno,
                rule="XUNI002",
                message=(
                    f"{got} value passed to parameter {param!r} of "
                    f"{callee}() which expects {expected}; convert "
                    "with the matching repro.units helper"
                ),
            )
        )
