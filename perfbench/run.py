"""The repository's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads and metrics are declared in
``BENCHMARK.json``; ``perfbench/README.md`` says why each exists. With
``--trace 0`` the run measures every end-to-end metric with tracing off;
with ``--trace 1`` it installs the layer wrappers and reports every
per-layer metric instead. Each run checks its outputs: a run that fails
a check prints the problems to stderr and exits 1 without a result.
Before the result line it prints the metrics as a table, the
failed/attempted counts and a digest of every simulated statistic.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import host  # noqa: E402
import stats  # noqa: E402

#: Every process the benchmark starts must finish well inside this.
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def run_worker(workload: str, seed: int, role: str, seconds: float,
               tiny: bool) -> dict:
    """Spawn one batch worker; returns its report plus ``setup_s``, the
    time from spawn to ready normalised by the host's speed as the worker
    measured it right after (see host.py)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           "--seed", str(seed), "--role", role, "--seconds", repr(seconds)]
    if tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {role} failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = (
        (report["ready_mono"] - spawned)
        * host.REFERENCE_S / report["setup_calibration_s"]
    )
    return report


def batch_end_to_end(workload: str, seed: int, seconds: float,
                     tiny: bool) -> dict:
    """Two set-up-only workers, then the measuring one."""
    setups = [run_worker(workload, seed, "setup", 0.0, tiny)["setup_s"]
              for _ in range(2)]
    report = run_worker(workload, seed, "measure", seconds, tiny)
    report["setup_s"] = stats.median(setups + [report["setup_s"]])
    return report


def end_to_end_values(report: dict) -> dict:
    values = {
        "setup_s": report["setup_s"],
        "run_wall_s": report["run_wall_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "write_p50_ms": report["write_ms"]["p50"],
        "read_p50_ms": report["read_ms"]["p50"],
    }
    values.update(report["modelled"])
    return values


def per_layer_values(report: dict, names) -> dict:
    """Every declared per-layer metric: the traced layers' totals, plus
    the figures derived here (0 where a layer did no work)."""
    values = {name: report["layers"].get(name, 0.0) for name in names}
    for name in ("sim.sched_rounds", "sim.decision_rounds"):
        values[name] = report.get(name, values[name])
    accesses = values["cache.items.accesses"]
    values["cache.items.hit_ratio"] = (
        values["cache.items.hits"] / accesses if accesses else 0.0
    )
    values["loadgen.lag_p99_ms"] = report.get("lag_p99_ms", 0.0)
    values["loadgen.backlog_max"] = report.get("backlog_max", 0)
    traced = report["traced_wall_s"]
    values["trace.run_wall_s"] = traced
    values["trace.overhead_s"] = traced - report["untraced_wall_s"]
    blocking = (values["sim.step.self_s"] + values["core.schedule.s"]
                + values["cache.reallocate.s"])
    values["trace.blocking_share"] = blocking / traced if traced else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to seconds (tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from a repository checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {names}", file=sys.stderr)
        return 2
    metrics_decl = declared["per_layer" if args.trace else "end_to_end"]

    if args.workload == "serve_online":
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import serve

        report = serve.run_workload(ROOT, child_env(), args.seed,
                                    args.seconds, bool(args.trace),
                                    tiny=args.tiny)
        if args.trace and not report["problems"]:
            report.update({k: report["layers"].get(k, 0) for k in
                           ("sim.sched_rounds", "sim.decision_rounds")})
    elif args.trace:
        report = run_worker(args.workload, args.seed, "trace",
                            args.seconds, args.tiny)
        if report["still_wrapped"]:
            report["problems"].append(
                f"wrappers not restored: {report['still_wrapped']}")
        if report["digest"] != report["digest_untraced"]:
            report["problems"].append("traced and untraced runs diverged")
    else:
        report = batch_end_to_end(args.workload, args.seed, args.seconds,
                                  args.tiny)

    if report["problems"]:
        for problem in report["problems"][:50]:
            print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer_values(report, [m["name"] for m in metrics_decl])
    else:
        values = end_to_end_values(report)
    metrics = {}
    for decl in metrics_decl:
        value = values[decl["name"]]
        metrics[decl["name"]] = {"value": value, "unit": decl["unit"]}
        print(f"{decl['name']:<44} {value:>16.6g} {decl['unit']}")
    if not args.trace:
        # For reading only: the tails' run-to-run spread on a shared host
        # is wider than any bound a regression gate could use.
        print(f"tails write_p99_ms={report['write_ms']['p99']:.6g} "
              f"read_p99_ms={report['read_ms']['p99']:.6g} "
              f"(samples {report['write_ms']['count']}/"
              f"{report['read_ms']['count']})")
        if "raw_wall_s" in report:
            print(f"raw_wall_s {report['raw_wall_s']:.6g} "
                  "(run_wall_s before normalising by host speed)")
    print(f"failed/attempted {report['failed']}/{report['attempted']}")
    print(f"digest {args.workload} seed={args.seed} {report['digest']}")
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
