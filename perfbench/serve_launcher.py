"""``python -m repro serve``, run so the benchmark can see its outcome.

    python perfbench/serve_launcher.py [--layers-out PATH] [serve args...]

Runs the unchanged ``repro serve`` command. When the service has drained
it prints, as its last stdout line, ``perfbench-outcome`` and the
service's own outcome record (:func:`batch.outcome`: end time, every
job's JCT and finish time, rounds and loop events), which the benchmark
checks against a batch run and hashes into the digest.

With ``--layers-out`` it first installs :mod:`layers` and writes the
per-layer summary to ``PATH`` as JSON and the raw spans next to it. The
summary covers the load stream only: from the first ``submit`` to the
``clock resume`` that starts the drain, the window the benchmark times
the server's CPU over. The simulator's round counters and the admission
queue's refusals are taken over the same window.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402

OUTCOME_PREFIX = "perfbench-outcome "


def _snapshot(recorder: layers.Recorder, engine) -> dict:
    summary = recorder.summary()
    summary["sim.sched_rounds"] = engine.sim.sched_rounds
    summary["sim.decision_rounds"] = engine.sim.decision_rounds
    summary["serve.admission.rejected"] = engine.stack.admission.rejected_total
    return summary


def _watch_stream(engine, recorder: layers.Recorder, window: dict) -> None:
    """Snapshot the layers at the stream's first submit and at the clock
    release, by wrapping the engine instance's two request methods."""
    submit, clock_op = engine.submit, engine.clock_op

    def windowed_submit(*args, **kwargs):
        if "start" not in window:
            window["start"] = _snapshot(recorder, engine)
        return submit(*args, **kwargs)

    def windowed_clock_op(action, *args, **kwargs):
        if action == "resume" and "end" not in window:
            window["end"] = _snapshot(recorder, engine)
        return clock_op(action, *args, **kwargs)

    engine.submit = windowed_submit
    engine.clock_op = windowed_clock_op


def main(argv) -> int:
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    parser.add_argument("--layers-out")
    args, serve_args = parser.parse_known_args(argv)
    recorder = patches = None
    if args.layers_out:
        recorder = layers.Recorder()
        patches = layers.install(recorder)

    import repro.serve.cli as serve_cli
    from repro.cli import main as repro_main

    built = []
    window: dict = {}
    build_server = serve_cli.build_server

    def capturing_build_server(build_args):
        server = build_server(build_args)
        built.append(server)
        if recorder is not None:
            _watch_stream(server.engine, recorder, window)
        return server

    serve_cli.build_server = capturing_build_server
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        serve_cli.build_server = build_server
        if patches is not None:
            layers.restore(patches)
    engine = built[0].engine

    import batch

    if recorder is not None:
        start, end = window.get("start", {}), window.get("end", {})
        summary = {name: value - start.get(name, 0.0)
                   for name, value in end.items()}
        recorder.write(os.path.splitext(args.layers_out)[0] + ".spans.bin")
        with open(args.layers_out, "w") as handle:
            json.dump(summary, handle)
    print(OUTCOME_PREFIX + json.dumps(batch.outcome(engine.result, engine.sim)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
