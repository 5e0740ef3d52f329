"""Project call graph: who calls whom, and what we cannot prove.

Built over the :class:`~repro.lint.symbols.SymbolTable`, the graph has
one node per indexed function/method plus a ``<module>`` pseudo-node
per module for top-level statements. Edges are recorded for the call
shapes the table can actually resolve:

* **direct calls** — ``helper()``, ``pkg.mod.func()``, aliased imports;
* **constructor calls** — ``MyClass()`` edges to ``MyClass.__init__``
  when the class (or a local ancestor) defines one;
* **method dispatch** — ``self.m()`` / ``cls.m()`` / ``super().m()``
  resolved through the class's local base chain;
* **registry dispatch** — ``REGISTRY[key](...)`` where ``REGISTRY`` is
  a module-level dict literal of name/attribute values: one edge per
  resolvable value (the dispatch could pick any of them).

Everything else — a call on an arbitrary object, a name the table does
not know, a callable stored in a local — lands in the explicit
**unresolved-call** category (:class:`UnresolvedCall`). The cross-module
passes and the CLI surface that count rather than silently treating
unresolved calls as safe: the soundness gap is part of the report.
Builtin calls (``len``, ``print``) and calls into modules outside the
indexed project (``time.time``) are *external*, not unresolved — the
table proved what they are; they are simply not project code.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
from typing import Dict, List, Optional

from repro.lint.astutil import dotted_name
from repro.lint.engine import SourceFile
from repro.lint.symbols import SymbolTable

#: Names resolvable to the interpreter builtins: calling them is
#: external, never "unresolved".
_BUILTIN_NAMES = frozenset(dir(builtins))

#: Pseudo-function name for a module's top-level statements.
MODULE_BODY = "<module>"


def iter_contexts(module: str, src: SourceFile):
    """Yield ``(qname, class_qname, node)`` per analysis context.

    One context per top-level function, per method, and one
    ``<module>`` pseudo-context for everything else (module-level and
    class-level statements). Nested ``def``s stay inside their
    enclosing context: their behaviour is attributed to the function
    that defines them. Shared by the call-graph builder and the
    whole-program passes so call edges and source/sink sites agree on
    context identity.
    """
    module_body: List[ast.stmt] = []
    for stmt in src.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield (f"{module}.{stmt.name}", None, stmt)
        elif isinstance(stmt, ast.ClassDef):
            class_qname = f"{module}.{stmt.name}"
            class_body: List[ast.stmt] = []
            for item in stmt.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield (
                        f"{class_qname}.{item.name}",
                        class_qname,
                        item,
                    )
                else:
                    class_body.append(item)
            if class_body:
                holder = ast.Module(body=class_body, type_ignores=[])
                yield (f"{module}.{MODULE_BODY}", class_qname, holder)
        else:
            module_body.append(stmt)
    yield (
        f"{module}.{MODULE_BODY}",
        None,
        ast.Module(body=module_body, type_ignores=[]),
    )


@dataclasses.dataclass(frozen=True)
class CallEdge:
    """One resolved call: ``caller`` invokes ``callee`` at ``line``."""

    caller: str
    callee: str
    rel_path: str
    line: int


@dataclasses.dataclass(frozen=True)
class UnresolvedCall:
    """A call site the graph could not resolve (soundness gap)."""

    caller: str
    callee_text: str
    rel_path: str
    line: int


class CallGraph:
    """Resolved call edges plus the explicit unresolved-call category."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.edges: List[CallEdge] = []
        self.unresolved: List[UnresolvedCall] = []
        self.out: Dict[str, List[CallEdge]] = {}

    @classmethod
    def build(cls, table: SymbolTable) -> "CallGraph":
        """Walk every indexed function body and resolve its calls."""
        graph = cls(table)
        for mod in table.modules.values():
            graph._walk_module(mod.name, mod.src)
        return graph

    # -- construction --------------------------------------------------

    def _walk_module(self, module: str, src: SourceFile) -> None:
        """Attribute each call site to its enclosing function node."""
        for caller, class_qname, node in iter_contexts(module, src):
            for call in self._calls_under(node):
                self._resolve_call(
                    caller, class_qname, module, src, call
                )

    @staticmethod
    def _calls_under(node: ast.AST) -> List[ast.Call]:
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)]

    def _resolve_call(
        self,
        caller: str,
        class_qname: Optional[str],
        module: str,
        src: SourceFile,
        call: ast.Call,
    ) -> None:
        func = call.func
        line = getattr(call, "lineno", 1)
        # Registry dispatch: REGISTRY[key](...)
        if isinstance(func, ast.Subscript):
            if self._resolve_registry(caller, module, src, func, line):
                return
            self._record_unresolved(caller, src, func, line)
            return
        # super().m() has a Call in its chain, so test it before the
        # dotted-name fast path returns None for it.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and class_qname is not None
        ):
            self._resolve_super_dispatch(
                caller, class_qname, src, func.attr, line
            )
            return
        name = dotted_name(func)
        if name is None:
            # Call on a computed expression (chained calls, lambdas).
            self._record_unresolved(caller, src, func, line)
            return
        head = name.split(".")[0]
        # self./cls. method dispatch through the local base chain.
        if class_qname is not None and head in ("self", "cls"):
            self._resolve_self_dispatch(
                caller, class_qname, src, name, line
            )
            return
        resolved = self.table.resolve(module, name)
        if resolved is None:
            if "." not in name and head in _BUILTIN_NAMES:
                return  # builtin: external, proven.
            self._record_unresolved(caller, src, func, line)
            return
        self._record_resolved(caller, src, resolved, line)

    def _resolve_registry(
        self,
        caller: str,
        module: str,
        src: SourceFile,
        func: ast.Subscript,
        line: int,
    ) -> bool:
        base = dotted_name(func.value)
        if base is None:
            return False
        resolved = self.table.resolve(module, base)
        if resolved is None:
            return False
        reg_module, _, reg_name = resolved.rpartition(".")
        mod = self.table.modules.get(reg_module)
        if mod is None or reg_name not in mod.registries:
            return False
        registry = mod.registries[reg_name]
        hit = False
        for value in registry.values:
            value_name = dotted_name(value)
            if value_name is None:
                continue
            target = self.table.resolve(reg_module, value_name)
            if target is not None and self._record_resolved(
                caller, src, target, line
            ):
                hit = True
        return hit

    def _resolve_self_dispatch(
        self,
        caller: str,
        class_qname: str,
        src: SourceFile,
        name: str,
        line: int,
    ) -> None:
        parts = name.split(".")
        if len(parts) != 2:
            # ``self.attr.method()``: the attribute's type is unknown.
            self._record_unresolved_text(caller, src, name, line)
            return
        method = self.table.resolve_method(class_qname, parts[1])
        if method is None:
            # Method (or attribute-held callable) from outside the
            # indexed project.
            self._record_unresolved_text(caller, src, name, line)
            return
        self._add_edge(caller, method.qname, src, line)

    def _resolve_super_dispatch(
        self,
        caller: str,
        class_qname: str,
        src: SourceFile,
        method_name: str,
        line: int,
    ) -> None:
        symbol = self.table.cls(class_qname)
        if symbol is None:
            self._record_unresolved_text(
                caller, src, f"super().{method_name}", line
            )
            return
        for base in self.table.base_classes(symbol):
            method = self.table.resolve_method(base.qname, method_name)
            if method is not None:
                self._add_edge(caller, method.qname, src, line)
                return
        self._record_unresolved_text(
            caller, src, f"super().{method_name}", line
        )

    def _record_resolved(
        self, caller: str, src: SourceFile, qname: str, line: int
    ) -> bool:
        """Edge to a function, constructor, or method — if indexed."""
        fn = self.table.function(qname)
        if fn is not None:
            self._add_edge(caller, fn.qname, src, line)
            return True
        klass = self.table.cls(qname)
        if klass is not None:
            ctor = self.table.resolve_method(klass.qname, "__init__")
            self._add_edge(
                caller,
                ctor.qname if ctor is not None else klass.qname,
                src,
                line,
            )
            return True
        root = qname.split(".")[0]
        if root in self.table.modules:
            # Names the project module but not an indexed symbol
            # (e.g. a module-level constant used as a callable).
            self._record_unresolved_text(caller, src, qname, line)
            return False
        return False  # external module: proven, not unresolved.

    def _record_unresolved(
        self, caller: str, src: SourceFile, func: ast.AST, line: int
    ) -> None:
        text = dotted_name(func)
        if text is None:
            try:
                text = ast.unparse(func)
            except Exception:  # pragma: no cover - very old ASTs
                text = "<expression>"
        self._record_unresolved_text(caller, src, text, line)

    def _record_unresolved_text(
        self, caller: str, src: SourceFile, text: str, line: int
    ) -> None:
        self.unresolved.append(
            UnresolvedCall(
                caller=caller,
                callee_text=text,
                rel_path=src.rel_path,
                line=line,
            )
        )

    def _add_edge(
        self, caller: str, callee: str, src: SourceFile, line: int
    ) -> None:
        edge = CallEdge(
            caller=caller,
            callee=callee,
            rel_path=src.rel_path,
            line=line,
        )
        self.edges.append(edge)
        self.out.setdefault(caller, []).append(edge)

    # -- queries -------------------------------------------------------

    def callees(self, caller: str) -> List[CallEdge]:
        """Outgoing resolved edges of ``caller``."""
        return self.out.get(caller, [])
