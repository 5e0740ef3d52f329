"""Perf pass: per-item cache sweeps and per-job builtin calls on hot paths.

The simulators' cache bookkeeping goes through bulk store APIs
(``ResidencyStore.apply_targets`` / ``total_resident_mb`` /
``reclaim_candidates`` / fill plans). A module that imports from
``repro.sim`` or ``repro.cache`` works with that state, so a
hand-written ``for key in store.keys(): ... store.resident_mb(key)
...`` loop there is a perf bug waiting to scale: it re-introduces an
O(keys)-per-event scan next to a store that already has a bulk answer.

``PERF001`` fires on a ``for`` loop in such a module when

* the iterable is a ``.keys()`` / ``.stale_first_keys()`` /
  ``.items()`` call on a receiver whose name marks it as cache state
  (``cache``, ``store``, ``resident``), and
* the loop body calls a per-key scalar accessor (``resident_mb``,
  ``snapshot``, ``set_resident_mb``, ...).

Deliberate scans (rare reclaim paths, per-sample reporting) carry a
``# lint: disable=PERF001`` line with a one-line justification.

``PERF002`` fires on a two-argument builtin ``min``/``max`` call in a
module the round runs per job (:data:`_ROUND_MODULES`), which writes
``b if b < a else a`` / ``b if b > a else a``: the same result, no call.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.engine import LintPass, SourceFile
from repro.lint.findings import Finding
from repro.lint.symbols import module_name_for

#: Importing from these packages marks a module as handling cache state.
_CACHE_PACKAGES = ("repro.sim", "repro.cache")

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

#: Modules the round runs per job, where ``PERF002`` applies.
_ROUND_MODULES = frozenset("repro." + name for name in (
    "core.perf_model core.estimator core.policies.gavel core.policies.het "
    "core.policies.base core.policies.greedy core.policies.io_share "
    "cache.base cache.silod_cache cache.residency obs.prov sim.fluid "
    "sim.jobtable sim.kernel"
).split())


def _is_pairwise_min_max(node: ast.AST) -> bool:
    """``min(a, b)`` / ``max(a, b)``: no keywords, no starred arguments."""
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("min", "max") and len(node.args) == 2
        and not node.keywords
        and not any(isinstance(a, ast.Starred) for a in node.args)
    )


def _in_cache_package(module: str) -> bool:
    """``repro.sim`` / ``repro.cache`` or a module below either."""
    return any(
        module == package or module.startswith(package + ".")
        for package in _CACHE_PACKAGES
    )


def _imports_cache_packages(tree: ast.AST) -> bool:
    """Whether the module imports from ``repro.sim`` or ``repro.cache``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(_in_cache_package(alias.name) for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if _in_cache_package(node.module):
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
    """Flag scalar per-key cache sweeps in modules handling cache state,
    and two-argument ``min``/``max`` calls in per-job round modules."""

    name = "perf"
    rules = ("PERF001", "PERF002")

    docs = {
        "PERF001": (
            "A for-loop over cache-state keys (store.keys() /\n"
            "stale_first_keys() / items()) whose body calls per-key\n"
            "scalar accessors, in a module that imports from repro.sim\n"
            "or repro.cache. That re-introduces an O(keys)-per-event\n"
            "scan next to a store that has a bulk answer; use the\n"
            "store's bulk APIs (apply_targets, total_resident_mb,\n"
            "reclaim_candidates). Deliberate rare-path scans suppress\n"
            "the line with a one-line justification."
        ),
        "PERF002": (
            "A two-argument builtin min()/max() in a module the round\n"
            "runs per job. Write min(a, b) as `b if b < a else a` and\n"
            "max(a, b) as `b if b > a else a`: the builtins' own\n"
            "comparisons (same ties, NaNs, signed zeros), without a call."
        ),
    }

    def run(self, src: SourceFile) -> List[Finding]:
        """Scan every ``for`` loop once the module imports cache state,
        and every call in a per-job round module."""
        findings: List[Finding] = []
        if module_name_for(src.path) in _ROUND_MODULES:
            findings.extend(
                src.finding(
                    node,
                    "PERF002",
                    f"two-argument {node.func.id}() in a per-job round "
                    "module; write it as the builtin's comparison",
                )
                for node in ast.walk(src.tree)
                if _is_pairwise_min_max(node)
            )
        if not _imports_cache_packages(src.tree):
            return findings
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
                    "module handling it; use the store's bulk APIs "
                    "(apply_targets / total_resident_mb / "
                    "clear_targets_except) or justify the scan with a "
                    "disable comment",
                )
            )
        return findings
