"""Event scoping: a scope-restricted event comes from its home package.

``OBS004`` keeps two event sets inside their homes: service-lifecycle
events (:data:`repro.obs.events.SERVICE_TYPES`) in ``repro/serve/``, so
a batch run cannot masquerade as an online one, and simulator-scoped
events (:data:`repro.obs.events.SIMULATOR_SCOPED_TYPES`: decision
provenance and SLO tracking) in ``repro/sim/``, the one code path batch
and serve share. ``obs/prov.py`` and ``obs/slo.py``, which emit
provenance and SLO events on the simulators' behalf, are in scope too.

The pass walks every function once. A scoped emission in an
out-of-scope file fires at the emit line. A scoped emission in an
in-scope file marks its function as an *emitter*, and every resolved
call edge from an out-of-scope file into an emitter fires at the call
line, so a one-line wrapper inside the scope does not launder the
emission. The edge check is one edge deep on purpose: transitively,
everything reaches the emitters (the serve engine drives the
simulators that emit provenance, by design). Dynamic event types are
skipped, as in the ``obs-schema`` pass.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, NamedTuple, Optional, Set

from repro.lint.callgraph import iter_contexts
from repro.lint.engine import Finding, ProjectIndex, ProjectPass
from repro.lint.passes.obs_schema import _resolve_etype
from repro.lint.symbols import module_name_for


class _Scope(NamedTuple):
    kind: str
    allowed: Callable[[str], bool]
    home: str
    why: str


_SERVICE = _Scope(
    "service-lifecycle",
    lambda rel: "repro/serve/" in rel,
    "repro/serve/",
    "only the online service may narrate service start/stop, admission "
    "rejections, and clock changes (see docs/SERVE.md)",
)

_SIMULATOR = _Scope(
    "simulator-scoped",
    lambda rel: (
        "repro/sim/" in rel
        or rel.endswith("obs/prov.py")
        or rel.endswith("obs/slo.py")
    ),
    "repro/sim/",
    "decision provenance and SLO events must come from the shared "
    "simulator code path so batch and serve event logs stay "
    "bit-identical (see docs/OBSERVABILITY.md)",
)


def _scopes(events) -> Dict[str, _Scope]:
    """Event type -> its scope, for every scope-restricted type."""
    table = dict.fromkeys(events.SERVICE_TYPES, _SERVICE)
    table.update(dict.fromkeys(events.SIMULATOR_SCOPED_TYPES, _SIMULATOR))
    return table


def _emitted_etype(node: ast.AST, events) -> Optional[str]:
    """The event type an ``emit(...)`` call emits, if it is one."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "emit":
        return _resolve_etype(node, events)
    return None


class ObsScopePass(ProjectPass):
    """Scope-restricted events: emitted, or wrapped, only in scope."""

    name = "obs-scope"
    rules = ("OBS004",)

    docs = {
        "OBS004": (
            "A scope-restricted event emitted outside its home, either\n"
            "directly or through a call into an in-scope helper that\n"
            "emits it. Service-lifecycle events (SERVICE_TYPES) narrate\n"
            "the online service's life and belong to repro/serve/ (see\n"
            "docs/SERVE.md). Simulator-scoped events\n"
            "(SIMULATOR_SCOPED_TYPES: decision provenance, SLO\n"
            "tracking) belong to repro/sim/, the one code path batch\n"
            "and serve share, or the two event streams fork (see\n"
            "docs/OBSERVABILITY.md). obs/prov.py and obs/slo.py, which\n"
            "emit on the simulators' behalf, are in scope. Only the\n"
            "direct call edge into the emitting helper is checked:\n"
            "reaching the emission transitively (the serve engine\n"
            "driving a simulator) is the designed architecture."
        ),
    }

    def run_project(self, index: ProjectIndex) -> List[Finding]:
        from repro.obs import events

        scopes = _scopes(events)
        findings: List[Finding] = []
        #: in-scope function qname -> scoped event types it emits.
        emitters: Dict[str, Set[str]] = {}
        for src in index.files:
            module = module_name_for(src.path)
            for qname, _class_qname, node in iter_contexts(module, src):
                for call in ast.walk(node):
                    etype = _emitted_etype(call, events)
                    scope = scopes.get(etype)
                    if scope is None:
                        continue
                    if scope.allowed(src.rel_path):
                        emitters.setdefault(qname, set()).add(etype)
                        continue
                    findings.append(
                        src.finding(
                            call,
                            "OBS004",
                            f"{scope.kind} event {etype!r} emitted "
                            f"outside {scope.home}; {scope.why}",
                        )
                    )
        for edge in index.graph.edges:
            for etype in sorted(emitters.get(edge.callee, ())):
                scope = scopes[etype]
                if scope.allowed(edge.rel_path):
                    continue
                findings.append(
                    Finding(
                        path=edge.rel_path,
                        line=edge.line,
                        rule="OBS004",
                        message=(
                            f"call into {edge.callee} emits the "
                            f"{scope.kind} event {etype!r} on the "
                            f"caller's behalf; that event belongs to "
                            f"{scope.home} and wrapping the emit in a "
                            "helper does not move the scope boundary"
                        ),
                    )
                )
        return findings
