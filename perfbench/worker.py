"""Child process of one batch-workload run.

    python perfbench/worker.py WORKLOAD --seed N --role setup|measure|trace
        [--seconds S] [--tiny]

Every role first sets up (imports, input generation, first simulator
build) and reports the monotonic time it was ready, so the parent can
time set-up from process spawn, and a host-speed calibration
(:mod:`host`) timed right after. ``setup`` then exits. ``measure`` cycles
through the workload's cells until ``--seconds`` have passed (at least
one full pass), checking every run; its host times are normalised by
the host's speed (:mod:`host`). ``trace`` installs the layer
wrappers *before* set-up, runs one traced pass for the layer figures,
then alternates plain and traced passes for the overhead figure. The report is one
JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import host  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402

#: Traced/plain pass pairs whose median difference is the overhead.
TRACE_PAIRS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    recorder = patches = None
    if args.role == "trace":
        recorder = layers.Recorder()
        patches = layers.install(recorder)

    import batch
    import inputs

    spec = inputs.BATCH_SPECS[args.workload]
    if args.tiny:
        spec = inputs.tiny(spec)
    cells = inputs.make_cells(spec, args.seed)
    first_sim = batch.build_sim(spec, cells[0])
    report = {"ready_mono": time.monotonic()}
    # Host speed right after set-up, to normalise the set-up time by.
    report["setup_calibration_s"] = host.calibration_s()
    if args.role == "setup":
        print(json.dumps(report))
        return 0

    if args.role == "trace":
        def one_pass(first=None):
            runs = []
            for cell in cells:
                sim = first or batch.build_sim(spec, cell)
                first = None
                runs.append(batch.run_cell(sim, peeks=0))
            return runs

        # The first traced pass gives the layer figures. The overhead is
        # the median traced-minus-plain wall time over alternating pairs.
        traced = one_pass(first_sim)
        layers.restore(patches)
        report["still_wrapped"] = layers.installed(patches)
        untraced = one_pass()
        overheads = [sum(r.wall_s for r in traced)
                     - sum(r.wall_s for r in untraced)]
        for _ in range(TRACE_PAIRS - 1):
            again = layers.install(layers.Recorder())
            traced_wall = sum(r.wall_s for r in one_pass())
            layers.restore(again)
            overheads.append(traced_wall - sum(r.wall_s for r in one_pass()))
        report["layers"] = recorder.summary()
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        recorder.write(os.path.join(out_dir, f"spans-{args.workload}.bin"))
        report["traced_wall_s"] = sum(r.wall_s for r in traced)
        report["untraced_wall_s"] = (
            report["traced_wall_s"] - stats.median(overheads)
        )
        outcomes = [r.outcome for r in traced]
        report["sim.sched_rounds"] = sum(o["sched_rounds"] for o in outcomes)
        report["sim.decision_rounds"] = sum(
            o["decision_rounds"] for o in outcomes)
        report["digest"] = batch.digest(outcomes)
        report["digest_untraced"] = batch.digest(
            [r.outcome for r in untraced])
        report["problems"] = [
            p for run, cell in zip(traced, cells)
            for p in batch.check(run.result, cell, spec)
        ]
        report["attempted"] = sum(len(cell.jobs) for cell in cells)
        report["failed"] = batch.unfinished(outcomes)
        print(json.dumps(report))
        return 0

    # Whole passes over every cell until the time is up. A calibration
    # runs between consecutive cells, so each cell's host times can be
    # normalised by the host's speed right around it (see host.py).
    deadline = time.monotonic() + args.seconds
    outcomes = None
    passes = []
    problems = []
    sim = first_sim
    calibration = report["setup_calibration_s"]
    while outcomes is None or time.monotonic() < deadline:
        runs = []
        timings = []
        for cell in cells:
            run = batch.run_cell(sim or batch.build_sim(spec, cell), spec.peeks)
            sim = None
            before, calibration = calibration, host.calibration_s()
            factor = host.speed_factor(before, calibration)
            runs.append(run)
            timings.append({
                "raw_wall_s": run.wall_s,
                "wall_s": run.wall_s * factor,
                "write": stats.percentiles_ms(run.write_s, run.write_events),
                "read": stats.percentiles_ms(run.read_s, run.read_events),
                "factor": factor,
            })
            if outcomes is None:
                problems.extend(batch.check(run.result, cell, spec))
        if outcomes is None:
            outcomes = [r.outcome for r in runs]
        elif batch.digest([r.outcome for r in runs]) != batch.digest(outcomes):
            problems.append("a repeated pass diverged")
        passes.append(timings)

    # The least disturbed figures: on a shared host, noise only ever adds
    # time, and it drifts over seconds, so each cell's fastest run varies
    # far less from run to run than a median over runs.
    def fastest(get):
        return [min(get(p[i]) for p in passes) for i in range(len(cells))]

    def latency(kind):
        return {
            q: stats.median(fastest(lambda c: c[kind][q] * c["factor"]))
            for q in ("p50", "p99")
        } | {"count": sum(c[kind]["count"] for c in passes[0])}

    report.update(
        {
            "passes": len(passes),
            "run_wall_s": sum(fastest(lambda c: c["wall_s"])),
            "raw_wall_s": sum(fastest(lambda c: c["raw_wall_s"])),
            "write_ms": latency("write"),
            "read_ms": latency("read"),
            "modelled": batch.modelled(outcomes),
            "digest": batch.digest(outcomes),
            "problems": problems,
            "attempted": sum(len(cell.jobs) for cell in cells),
            "failed": batch.unfinished(outcomes),
            "peak_rss_mb": host.vm_hwm_mb(),
        }
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
