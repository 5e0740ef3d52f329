"""Perf pass: per-item Python sweeps over cache state in vectorized code.

The vectorization campaign (``docs/PERFORMANCE.md``) moved the
simulators' cache bookkeeping into bulk, array-friendly APIs
(``ResidencyStore.apply_targets`` / ``total_resident_mb`` / the job
table's masked sweeps). A module that imports the backend switch has
opted into that contract, so a hand-written ``for key in
store.keys(): ... store.resident_mb(key) ...`` loop there is a perf
bug waiting to scale: it re-introduces the O(keys)-per-event scalar
scans the campaign removed, and it silently bypasses the numpy path on
both backends.

``PERF001`` fires on a ``for`` loop in such a module when

* the iterable is a ``.keys()`` / ``.stale_first_keys()`` /
  ``.items()`` call on a receiver whose name marks it as cache state
  (``cache``, ``store``, ``resident``), and
* the loop body calls a per-key scalar accessor (``resident_mb``,
  ``snapshot``, ``set_resident_mb``, ...).

Deliberate scans (rare reclaim paths, per-sample reporting) carry a
``# lint: disable=PERF001`` line with a one-line justification.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.engine import LintPass, SourceFile
from repro.lint.findings import Finding

#: Importing this marks a module as vectorization-aware.
_VECTOR_MODULES = ("repro.backend",)

#: Iterable-producing methods that enumerate cache state per key.
_SWEEP_METHODS = {"keys", "stale_first_keys", "items"}

#: Receiver-name fragments that identify cache state.
_CACHE_NAMES = ("cache", "store", "resident")

#: Per-key scalar accessors whose presence makes the loop a sweep.
_SCALAR_ACCESSORS = {
    "resident_mb",
    "target_mb",
    "size_mb",
    "snapshot",
    "set_resident_mb",
    "set_target_mb",
    "set_size_mb",
}


def _imports_vector_helpers(tree: ast.AST) -> bool:
    """Whether the module imports the vectorized-backend helpers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(_VECTOR_MODULES):
                    return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith(_VECTOR_MODULES):
                return True
    return False


def _receiver_name(node: ast.AST) -> str:
    """Dotted-name tail of a call receiver (``self._cache`` -> ``_cache``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_cache_sweep_iterable(node: ast.AST) -> bool:
    """``<cache-ish receiver>.keys() / .stale_first_keys() / .items()``."""
    if not (isinstance(node, ast.Call) and
            isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr not in _SWEEP_METHODS:
        return False
    receiver = _receiver_name(node.func.value).lower()
    return any(frag in receiver for frag in _CACHE_NAMES)


def _body_hits_scalar_accessor(loop: ast.For) -> bool:
    """Whether the loop body calls a per-key scalar accessor."""
    for stmt in loop.body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SCALAR_ACCESSORS):
                return True
    return False


class PerfPass(LintPass):
    """Flag scalar per-key cache sweeps in vectorization-aware modules."""

    name = "perf"
    rules = ("PERF001",)

    docs = {
        "PERF001": (
            "A for-loop over cache-state keys (store.keys() /\n"
            "stale_first_keys() / items()) whose body calls per-key\n"
            "scalar accessors, in a module that imports the vectorized\n"
            "backend helpers. That re-introduces the O(keys)-per-event\n"
            "scans the vectorization campaign removed; use the store's\n"
            "bulk APIs (apply_targets, total_resident_mb, masked\n"
            "sweeps). Deliberate rare-path scans suppress the line\n"
            "with a one-line justification."
        ),
    }

    def run(self, src: SourceFile) -> List[Finding]:
        """Scan every ``for`` loop once the module opts into the backend."""
        if not _imports_vector_helpers(src.tree):
            return []
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.For):
                continue
            if not _is_cache_sweep_iterable(node.iter):
                continue
            if not _body_hits_scalar_accessor(node):
                continue
            findings.append(
                src.finding(
                    node,
                    "PERF001",
                    "per-item Python loop over cache state in a "
                    "vectorized module; use the store's bulk APIs "
                    "(apply_targets / total_resident_mb / "
                    "clear_targets_except) or justify the scan with a "
                    "disable comment",
                )
            )
        return findings
