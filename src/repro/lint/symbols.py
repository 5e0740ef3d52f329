"""Project-wide symbol table: phase 1 of the two-phase lint engine.

The per-file passes see one ``ast.Module`` at a time; the cross-module
passes (``xuni``, ``obs-scope``) need to know *who defines what* and
*what a dotted name means* in any given module. :class:`SymbolTable`
indexes every :class:`~repro.lint.engine.SourceFile` into

* **modules** — dotted module names derived from the ``__init__.py``
  chain on disk (``src/repro/sim/fluid.py`` -> ``repro.sim.fluid``;
  a loose script like ``tools/serve_smoke.py`` -> ``serve_smoke``);
* **functions** — top-level functions *and* methods, keyed by their
  fully-qualified name (``repro.sim.fluid.FluidSimulator.step``);
* **classes** — with their raw base-name spellings so the call graph
  can walk ``self.``/``super()`` dispatch through a local MRO;
* **import aliases** — per module, the map from a local name to the
  qualified thing it denotes (``import numpy as np`` -> ``np`` ->
  ``numpy``; ``from repro.obs.tracer import Tracer as T`` -> ``T`` ->
  ``repro.obs.tracer.Tracer``), including relative imports;
* **registries** — module-level dict literals (``POLICIES = {...}``)
  whose values are names, so registry-style dispatch
  (``POLICIES[key](...)``) stays resolvable.

:meth:`SymbolTable.resolve` turns a dotted name as written in a module
into a fully-qualified name; :meth:`SymbolTable.resolve_method` walks a
class's local base chain. Both are deliberately *partial*: anything
they cannot prove returns ``None`` and the call graph records it in its
explicit unresolved-call category instead of guessing.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.lint.engine import SourceFile


@dataclasses.dataclass
class FunctionSymbol:
    """One function or method definition."""

    qname: str
    module: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    src: SourceFile
    class_qname: Optional[str] = None

    @property
    def name(self) -> str:
        """The bare (unqualified) function name."""
        return self.node.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionSymbol({self.qname!r})"


@dataclasses.dataclass
class ClassSymbol:
    """One class definition with its raw base spellings and methods."""

    qname: str
    module: str
    node: ast.ClassDef
    src: SourceFile
    base_names: List[str] = dataclasses.field(default_factory=list)
    methods: Dict[str, FunctionSymbol] = dataclasses.field(
        default_factory=dict
    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassSymbol({self.qname!r})"


@dataclasses.dataclass
class ModuleSymbols:
    """Everything the table knows about one module."""

    name: str
    src: SourceFile
    #: local name -> qualified target (``np`` -> ``numpy``).
    imports: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: top-level function name -> symbol.
    functions: Dict[str, FunctionSymbol] = dataclasses.field(
        default_factory=dict
    )
    #: top-level class name -> symbol.
    classes: Dict[str, ClassSymbol] = dataclasses.field(
        default_factory=dict
    )
    #: module-level ``NAME = {...}`` dict literals (dispatch registries).
    registries: Dict[str, ast.Dict] = dataclasses.field(
        default_factory=dict
    )


def module_name_for(path: Path) -> str:
    """Dotted module name derived from the ``__init__.py`` chain.

    Walks upward while the parent directory is a package; a file outside
    any package keeps its bare stem (``tools/serve_smoke.py`` ->
    ``serve_smoke``). ``__init__.py`` itself names the package.
    """
    parts: List[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        current = current.parent
    return ".".join(reversed(parts))


class SymbolTable:
    """The project-wide index of definitions and import aliases."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleSymbols] = {}
        self.functions: Dict[str, FunctionSymbol] = {}
        self.classes: Dict[str, ClassSymbol] = {}

    @classmethod
    def build(cls, files: Sequence[SourceFile]) -> "SymbolTable":
        """Index every parsed file into one table."""
        table = cls()
        for src in files:
            table._index_file(src)
        return table

    # -- construction --------------------------------------------------

    def _index_file(self, src: SourceFile) -> None:
        name = module_name_for(src.path)
        mod = ModuleSymbols(name=name, src=src)
        # Last writer wins on (unlikely) duplicate bare module names;
        # qualified package paths never collide.
        self.modules[name] = mod
        for stmt in src.tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._index_import(mod, stmt)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self._index_function(mod, stmt, class_sym=None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(mod, stmt)
            elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Dict
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        mod.registries[target.id] = stmt.value
        # Imports may appear inside functions (lazy imports); index them
        # too so resolution inside those functions still works.
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._index_import(mod, node, overwrite=False)

    def _index_import(
        self, mod: ModuleSymbols, node: ast.AST, overwrite: bool = True
    ) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else local
                self._bind(mod, local, target, overwrite)
        elif isinstance(node, ast.ImportFrom):
            base = self._import_base(mod, node)
            if base is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self._bind(
                    mod, local, f"{base}.{alias.name}", overwrite
                )

    @staticmethod
    def _bind(
        mod: ModuleSymbols, local: str, target: str, overwrite: bool
    ) -> None:
        if overwrite or local not in mod.imports:
            mod.imports[local] = target

    @staticmethod
    def _import_base(
        mod: ModuleSymbols, node: ast.ImportFrom
    ) -> Optional[str]:
        """Absolute base module of a (possibly relative) from-import."""
        if node.level == 0:
            return node.module
        parts = mod.name.split(".")
        # ``from . import x`` in package module a.b.c strips one level
        # (the module's own name); each extra dot strips a package.
        if len(parts) < node.level:
            return None
        base_parts = parts[: len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts) if base_parts else None

    def _index_function(
        self,
        mod: ModuleSymbols,
        node: ast.AST,
        class_sym: Optional[ClassSymbol],
    ) -> None:
        if class_sym is None:
            qname = f"{mod.name}.{node.name}"
            symbol = FunctionSymbol(
                qname=qname, module=mod.name, node=node, src=mod.src
            )
            mod.functions[node.name] = symbol
        else:
            qname = f"{class_sym.qname}.{node.name}"
            symbol = FunctionSymbol(
                qname=qname,
                module=mod.name,
                node=node,
                src=mod.src,
                class_qname=class_sym.qname,
            )
            class_sym.methods[node.name] = symbol
        self.functions[qname] = symbol

    def _index_class(self, mod: ModuleSymbols, node: ast.ClassDef) -> None:
        qname = f"{mod.name}.{node.name}"
        from repro.lint.astutil import dotted_name

        base_names = [
            name
            for name in (dotted_name(base) for base in node.bases)
            if name is not None
        ]
        symbol = ClassSymbol(
            qname=qname,
            module=mod.name,
            node=node,
            src=mod.src,
            base_names=base_names,
        )
        mod.classes[node.name] = symbol
        self.classes[qname] = symbol
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(mod, stmt, class_sym=symbol)

    # -- resolution ----------------------------------------------------

    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Fully-qualified name for ``dotted`` as written in ``module``.

        Resolution is purely lexical: the head segment is looked up in
        the module's import aliases and top-level definitions, and the
        remaining segments are appended. The result may name a symbol
        outside the indexed project (``numpy.ndarray``); use
        :meth:`function` / :meth:`cls` to test project membership.
        """
        mod = self.modules.get(module)
        if mod is None:
            return None
        head, _, rest = dotted.partition(".")
        target: Optional[str] = None
        if head in mod.imports:
            target = mod.imports[head]
        elif head in mod.functions or head in mod.classes:
            target = f"{module}.{head}"
        elif head in mod.registries:
            target = f"{module}.{head}"
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def function(self, qname: Optional[str]) -> Optional[FunctionSymbol]:
        """The project function/method at ``qname``, if indexed."""
        if qname is None:
            return None
        return self.functions.get(qname)

    def cls(self, qname: Optional[str]) -> Optional[ClassSymbol]:
        """The project class at ``qname``, if indexed."""
        if qname is None:
            return None
        return self.classes.get(qname)

    def base_classes(self, symbol: ClassSymbol) -> List[ClassSymbol]:
        """``symbol``'s bases resolved through its module's imports."""
        out: List[ClassSymbol] = []
        for base_name in symbol.base_names:
            resolved = self.resolve(symbol.module, base_name)
            base = self.cls(resolved)
            if base is not None:
                out.append(base)
        return out

    def resolve_method(
        self, class_qname: str, method: str
    ) -> Optional[FunctionSymbol]:
        """Find ``method`` on a class or its (project-local) ancestors.

        Depth-first over the resolved base chain — a close-enough MRO
        for lint purposes. Returns ``None`` when the method must come
        from outside the indexed project.
        """
        seen = set()
        stack = [class_qname]
        while stack:
            qname = stack.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            symbol = self.cls(qname)
            if symbol is None:
                continue
            if method in symbol.methods:
                return symbol.methods[method]
            stack.extend(
                base.qname for base in self.base_classes(symbol)
            )
        return None
