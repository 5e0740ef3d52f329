"""Call graph: resolvable call shapes resolve, the rest is reported."""

from pathlib import Path

import pytest

from repro.lint.callgraph import CallGraph
from repro.lint.engine import SourceFile
from repro.lint.symbols import SymbolTable

pytestmark = pytest.mark.lint

PROJECT = Path(__file__).parent / "fixtures" / "project"


def build_graph(tmp_path, sources):
    files = []
    for name, text in sources.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        files.append(SourceFile(path, tmp_path))
    return CallGraph.build(SymbolTable.build(files))


def project_graph():
    files = [
        SourceFile(path, PROJECT)
        for path in sorted(PROJECT.rglob("*.py"))
    ]
    return CallGraph.build(SymbolTable.build(files))


def edge_pairs(graph):
    return {(edge.caller, edge.callee) for edge in graph.edges}


class TestResolvedShapes:
    def test_direct_and_aliased_edges_span_modules(self):
        pairs = edge_pairs(project_graph())
        assert ("repro.emitter.record", "repro.middle.stamp") in pairs
        assert (
            "repro.middle.stamp",
            "repro.clockmod.read_clock",
        ) in pairs

    def test_self_and_super_dispatch(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "mod.py": (
                    "class Base:\n"
                    "    def ping(self):\n"
                    "        return 1\n"
                    "\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        self.ping()\n"
                    "        return super().ping()\n"
                )
            },
        )
        targets = [
            edge.callee for edge in graph.callees("mod.Child.run")
        ]
        # Both the self. and the super() call resolve through the base.
        assert targets == ["mod.Base.ping", "mod.Base.ping"]

    def test_constructor_call_edges_to_init(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "mod.py": (
                    "class Worker:\n"
                    "    def __init__(self):\n"
                    "        self.ready = True\n"
                    "\n"
                    "def make():\n"
                    "    return Worker()\n"
                )
            },
        )
        assert ("mod.make", "mod.Worker.__init__") in edge_pairs(graph)

    def test_registry_dispatch_fans_out_to_every_value(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "mod.py": (
                    "def alpha():\n"
                    "    return 1\n"
                    "\n"
                    "def beta():\n"
                    "    return 2\n"
                    "\n"
                    'POLICIES = {"a": alpha, "b": beta}\n'
                    "\n"
                    "def dispatch(key):\n"
                    "    return POLICIES[key]()\n"
                )
            },
        )
        targets = {
            edge.callee for edge in graph.callees("mod.dispatch")
        }
        assert targets == {"mod.alpha", "mod.beta"}


class TestUnresolvedCategory:
    def test_opaque_calls_are_reported_not_ignored(self):
        graph = project_graph()
        texts = {
            call.callee_text
            for call in graph.unresolved
            if call.caller == "repro.dynamic.apply"
        }
        assert "callback" in texts
        assert any(text.startswith("registry") for text in texts)

    def test_builtins_and_external_modules_are_proven(self):
        graph = project_graph()
        texts = {call.callee_text for call in graph.unresolved}
        assert "len" not in texts  # builtin: external, proven.
        # time.time() in clockmod resolves to an external module, not
        # an unresolved call.
        assert "time.time" not in texts

    def test_unresolved_sites_carry_location(self):
        graph = project_graph()
        call = next(
            c
            for c in graph.unresolved
            if c.caller == "repro.dynamic.apply"
            and c.callee_text == "callback"
        )
        assert call.rel_path == "repro/dynamic.py"
        assert call.line >= 1
