"""What the service loads: ``repro serve`` runs without numpy.

numpy is imported only where a seeded numpy RNG draws (trace
generation and Quiver's profiling noise) and by the reference
residency store, each at call time. The server never reaches those, so
building the ``repro`` parser, building a server and serving jobs to a
drain must leave ``numpy`` out of ``sys.modules``. The linter's engine
stays out too: ``repro.lint.cli`` loads it only when ``repro lint``
runs. Each check runs in a fresh interpreter, since the test session
has long since imported both.

Two guards pin the product boundary by reading the source, not by
importing it:

* every module under ``src/repro`` is reached from ``python -m repro``
  (``repro.__main__``, which delegates to ``repro.cli``) through its
  static imports, function-level ones included, except the experiment
  instruments named in :data:`INSTRUMENTS`;
* every function, method and class defined under ``src/repro`` is
  named outside its own ``def``/``class`` line by the product or by
  the benchmarks, examples, tools or perfbench, not only by its own
  tests; :data:`CALLERLESS_ALLOWED` names the exceptions and why;
* every parameter with a default in a ``src/repro`` def is set by
  some caller in those same trees, since an option no caller sets is
  a constant; :data:`OPTIONS_ALLOWED` names the exceptions and why.
"""

import ast
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules a serving process must never load.
SERVER_FREE_OF = ("numpy", "repro.lint.engine")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_serving_two_jobs_loads_neither_numpy_nor_the_linter():
    out = run_fresh(
        f"""
        import json
        import sys

        import repro.cli
        from repro.serve.cli import build_server
        from repro.serve.client import ServeClient
        from repro.serve.server import ServerThread

        args = repro.cli.build_parser().parse_args([
            "serve", "--port", "0", "--gpus", "8",
            "--policy", "fifo", "--cache", "silod",
        ])
        server = build_server(args)
        thread = ServerThread(server)
        host, port = thread.start()
        with ServeClient(host, port, timeout_s=30.0) as client:
            for i in range(2):
                reply = client.submit({{
                    "v": 1, "job_id": f"guard-{{i}}", "model": "resnet50",
                    "dataset": {{"name": f"ds-{{i}}", "size_mb": 512.0,
                                "num_items": 1000}},
                    "num_gpus": 1, "ideal_throughput_mbps": 100.0,
                    "total_work_mb": 1024.0, "submit_time_s": float(i),
                    "regular": True,
                }})
                assert reply["ok"], reply
            client.shutdown(drain=True)
        thread.join()
        print(json.dumps({{
            "finished": server.engine.jobs_finished,
            "loaded": [m for m in {SERVER_FREE_OF!r} if m in sys.modules],
        }}))
        """
    )
    assert out == {"finished": 2, "loaded": []}


@pytest.mark.parametrize(
    "call",
    [
        "from repro.workloads.trace import TraceConfig, generate_trace; "
        "generate_trace(TraceConfig(num_jobs=2))",
        "from repro.cache.quiver import QuiverCache; QuiverCache(seed=3)",
        "from repro.cache.residency import ArrayResidencyStore; "
        "ArrayResidencyStore().ensure('k', 1.0)",
    ],
    ids=["generate_trace", "QuiverCache", "ArrayResidencyStore"],
)
def test_numpy_loads_where_it_is_used(call):
    out = run_fresh(
        f"""
        import json
        import sys

        import repro.cli

        before = "numpy" in sys.modules
        {call}
        print(json.dumps([before, "numpy" in sys.modules]))
        """
    )
    assert out == [False, True]


def test_array_store_keeps_its_residency_name():
    from repro.cache import array_residency, residency
    from repro.cache.residency import ArrayResidencyStore

    assert ArrayResidencyStore is array_residency.ArrayResidencyStore
    assert issubclass(ArrayResidencyStore, residency.ResidencyStore)
    with pytest.raises(AttributeError):
        residency.NoSuchStore  # noqa: B018


#: Modules the product does not import: instruments that benchmarks,
#: examples and tests drive directly. A new module must be reachable
#: from ``repro.__main__`` or be named here.
INSTRUMENTS = (
    "repro.analysis.artifacts",
    "repro.analysis.fidelity",
    "repro.cluster.placement",
)

#: Trees whose mention of a name counts as a caller.
CALLER_TREES = ("src/repro", "benchmarks", "examples", "tools", "perfbench")

#: Definitions kept without a non-test caller, each with its reason.
CALLERLESS_ALLOWED = {
    "FaultSchedule.save": (
        "the documented writer of the JSON file `repro run --faults` "
        "reads (docs/FAULTS.md)"
    ),
}

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def source_modules():
    """Dotted module name -> path, for every module under src/repro."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def imported_names(path):
    """Every dotted name an import statement anywhere in the module reads.

    ``from a import b`` yields both ``a`` and ``a.b``, since ``b`` may be
    a submodule; names that are not modules are dropped by the caller.
    The package imports absolutely, so relative imports need no case.
    """
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def import_closure(modules, root):
    """Modules reached from ``root``, with each module's parent packages."""
    reached = set()
    pending = [root]
    while pending:
        name = pending.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        parts = name.split(".")
        pending.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        pending.extend(imported_names(modules[name]))
    return reached


def test_only_the_instruments_lie_outside_the_product():
    modules = source_modules()
    outside = set(modules) - import_closure(modules, "repro.__main__")
    assert sorted(outside) == sorted(INSTRUMENTS)


def definitions(path):
    """``(qualified name, name, line)`` of every def and class in a file."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield prefix + child.name, child.name, child.lineno
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(path.read_text()), "")


def test_every_src_definition_has_a_non_test_caller():
    """A name counts as called when it appears as an identifier token
    (code, comment or string) anywhere in :data:`CALLER_TREES` other
    than its own ``def``/``class`` line. Dunders are called by the
    language, and ``visit_*`` methods by ``ast.NodeVisitor``'s dispatch
    on the node type."""
    sites = {}
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            lines = path.read_text().splitlines()
            for number, line in enumerate(lines, start=1):
                for token in IDENTIFIER.findall(line):
                    sites.setdefault(token, set()).add((path, number))
    callerless = []
    for path in source_modules().values():
        for qualname, name, line in definitions(path):
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or name.startswith("visit_"):
                continue
            if not sites.get(name, set()) - {(path, line)}:
                callerless.append(qualname)
    assert sorted(callerless) == sorted(CALLERLESS_ALLOWED)


#: Parameters with a default that no non-test caller sets, each kept
#: with its reason. Keys are ``"<qualified def>(<parameter>)"``.
OPTIONS_ALLOWED = {
    **{
        f"{simulator}.__init__(max_time_s)": (
            "the documented bound for a fault schedule with an unmatched "
            "`job_preempt` (docs/FAULTS.md)"
        )
        for simulator in ("FluidSimulator", "MinibatchEmulator")
    },
    **{
        f"generate_churn({rate})": (
            "a churn rate; the Gavel anchor tests pin a cell that sets "
            "two of the six"
        )
        for rate in (
            "crash_interval_s",
            "repair_time_s",
            "bandwidth_flap_interval_s",
            "bandwidth_flap_duration_s",
            "bandwidth_floor",
            "cache_loss_fraction",
        )
    },
    **{
        f"peer_read_scaling_series({hardware})": (
            "a hardware figure of Figure 3's model"
        )
        for hardware in (
            "io_demand_per_server_mbps",
            "local_disk_mbps",
            "fabric_mbps",
        )
    },
    "compare_simulators(localize)": (
        "an instrument switch: trace both runs and attach the first "
        "diverging event to the fidelity report"
    ),
    "lint_paths(display_root)": (
        "the root finding paths print relative to; the CLI keeps the "
        "repository root, lint fixtures outside it need their own"
    ),
}


def option_parameters(path):
    """``(qualified name, callee name, positional index, parameter)`` of
    every parameter with a default in a file's defs.

    The callee name is what a call site writes: the class for an
    ``__init__``, else the def's own name. The positional index counts
    from the first argument a caller passes, so a method's ``self`` or
    ``cls`` is not counted; it is ``None`` for a keyword-only one.
    """

    def walk(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from parameters(child, prefix, owner)
                yield from walk(child, f"{prefix}{child.name}.", None)
            else:
                yield from walk(child, prefix, owner)

    def parameters(func, prefix, owner):
        qualname = prefix + func.name
        callee = owner.name if func.name == "__init__" else func.name
        args = func.args
        positional = args.posonlyargs + args.args
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in func.decorator_list
        )
        skip = 1 if owner is not None and not static else 0
        first_default = len(positional) - len(args.defaults)
        for index in range(first_default, len(positional)):
            yield qualname, callee, index - skip, positional[index].arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualname, callee, None, arg.arg

    yield from walk(ast.parse(path.read_text()), "", None)


def test_every_src_option_has_a_non_test_setter():
    """An option counts as set when :data:`CALLER_TREES` holds a call
    passing it by keyword (``name=``), a string constant equal to its
    name (``sim_kwargs``-style tables), or a call to the same callee
    name with enough positional arguments to reach it (a ``*args``
    call reaches every position)."""
    keywords, strings, reach = set(), set(), {}
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    strings.add(node.value)
                if not isinstance(node, ast.Call):
                    continue
                keywords.update(k.arg for k in node.keywords if k.arg)
                func = node.func
                name = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                count = math.inf if starred else len(node.args)
                reach[name] = max(reach.get(name, 0), count)
    unset = []
    for path in source_modules().values():
        for qualname, callee, index, name in option_parameters(path):
            if name in keywords or name in strings:
                continue
            if index is not None and reach.get(callee, 0) > index:
                continue
            unset.append(f"{qualname}({name})")
    assert sorted(unset) == sorted(OPTIONS_ALLOWED)
