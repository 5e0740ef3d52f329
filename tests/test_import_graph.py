"""What the service loads: ``repro serve`` runs without numpy.

numpy is imported only where a seeded numpy RNG draws (trace
generation and Quiver's profiling noise) and by the reference
residency store, each at call time. The server never reaches those, so
building the ``repro`` parser, building a server and serving jobs to a
drain must leave ``numpy`` out of ``sys.modules``. The linter's engine
stays out too: ``repro.lint.cli`` loads it only when ``repro lint``
runs. Each check runs in a fresh interpreter, since the test session
has long since imported both.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

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
