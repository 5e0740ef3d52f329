"""Command-line interface: ``python -m repro <command>``.

Eight subcommands cover the end-to-end workflow:

* ``trace``     — generate a synthetic trace (JSON Lines) and print its
  summary statistics;
* ``run``       — simulate one (policy, cache) configuration over a trace
  and print JCT / makespan / fairness (``--events`` captures a structured
  event log for later analysis; ``--faults`` / ``--churn-seed`` drive the
  run through a fault schedule, see ``docs/FAULTS.md``);
* ``matrix``    — the Figure 12-style grid over policies x caches;
* ``estimate``  — evaluate the closed-form SiloDPerf model for a single
  allocation (a calculator for Eq 4 / Eq 5);
* ``report``    — render timeline / scheduler-audit / cache tables from
  an event log written by ``run --events``, or tail a live service with
  ``--tail HOST:PORT`` (``--slo`` adds the deadline-attainment table);
* ``explain``   — reconstruct the decision provenance of one job from an
  event log: the Eq. 4 estimator inputs, policy score, and resulting
  GPU / cache / IO grants of every allocation round that touched it;
* ``serve``     — run the long-lived online scheduler service: job
  submissions over a line-JSON socket against simulated virtual time
  (see ``docs/SERVE.md``);
* ``lint``      — run the AST-based invariant linter (``repro.lint``)
  over the source tree (see ``docs/LINT.md``).

See ``docs/CLI.md`` for worked invocations and ``docs/OBSERVABILITY.md``
for the event schema.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import units
from repro.analysis.tables import render_table
from repro.cluster.hardware import Cluster, parse_gpu_mix
from repro.core import perf_model
from repro.faults import FaultSchedule, generate_churn
from repro.lint.cli import configure_parser as configure_lint_parser
from repro.serve.cli import configure_parser as configure_serve_parser
from repro.obs import (
    Tracer,
    load_events,
    render_explain,
    render_report,
    render_slo_report,
    save_chrome_trace,
    save_events,
    save_timeline_csv,
)
from repro.sim.runner import (
    CACHE_FACTORIES,
    CACHES,
    POLICIES,
    POLICY_FACTORIES,
    SIMULATORS,
    run_experiment,
    run_matrix,
)
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)
from repro.workloads.trace_io import load_trace, save_trace, trace_summary


def _number(kind, accepts, want: str):
    """An argparse ``type``: ``kind(text)`` if ``accepts`` it.

    Anything else is a usage error (exit 2, no traceback) saying the
    value is not ``want``.
    """

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accepts(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {want}")
        return value

    return parse


_positive_int = _number(int, lambda v: v >= 1, "an integer >= 1")
_positive = _number(float, lambda v: v > 0.0, "a number > 0")
_fraction = _number(
    float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"
)


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--gpus",
        type=_positive_int,
        default=100,
        help="total GPUs, a multiple of --gpus-per-server (default 100)",
    )
    parser.add_argument(
        "--gpus-per-server",
        type=_positive_int,
        default=4,
        help="GPUs per server (default 4)",
    )
    parser.add_argument(
        "--cache-per-gpu-gb",
        type=float,
        default=368.0,
        help="local cache per GPU in GB (default 368, Azure V100)",
    )
    parser.add_argument(
        "--egress-gbps",
        type=float,
        default=8.0,
        help="remote-IO egress limit in Gbps (default 8.0)",
    )
    parser.add_argument(
        "--gpu-mix",
        default=None,
        metavar="GEN:N[,GEN:N...]",
        help="heterogeneous fleet as servers per GPU generation, e.g. "
        "'V100:20,A100:5' (default: none — a homogeneous V100 fleet "
        "sized by --gpus; with --gpu-mix, --gpus is ignored and the "
        "mix fixes the server counts)",
    )


def _build_cluster(args: argparse.Namespace) -> Cluster:
    cache_per_server_mb = args.gpus_per_server * units.gb(
        args.cache_per_gpu_gb
    )
    if getattr(args, "gpu_mix", None):
        return Cluster.build_mixed(
            parse_gpu_mix(args.gpu_mix),
            gpus_per_server=args.gpus_per_server,
            cache_per_server_mb=cache_per_server_mb,
            remote_io_mbps=units.gbps(args.egress_gbps),
        )
    if args.gpus % args.gpus_per_server:
        # argparse's usage-error form: one line on stderr, exit 2.
        print(
            f"repro {args.command}: error: --gpus {args.gpus} is not a "
            f"multiple of --gpus-per-server {args.gpus_per_server}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return Cluster.build(
        num_servers=args.gpus // args.gpus_per_server,
        gpus_per_server=args.gpus_per_server,
        cache_per_server_mb=cache_per_server_mb,
        remote_io_mbps=units.gbps(args.egress_gbps),
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    config = TraceConfig(
        num_jobs=args.jobs,
        seed=args.seed,
        duration_median_s=units.minutes(args.duration_median_min),
        shared_dataset_fraction=args.sharing,
    )
    config.mean_interarrival_s = arrival_rate_for_load(
        config, args.gpus, load=args.load
    )
    jobs = generate_trace(config)
    save_trace(jobs, args.output)
    summary = trace_summary(jobs)
    rows = [{"statistic": k, "value": str(v)} for k, v in summary.items()]
    print(render_table(rows, title=f"trace written to {args.output}"))
    return 0


def _build_fault_schedule(
    args: argparse.Namespace, cluster: Cluster
) -> Optional[FaultSchedule]:
    """The run's fault schedule: a spec file, a churn seed, or none."""
    if args.faults and args.churn_seed is not None:
        raise SystemExit("--faults and --churn-seed are mutually exclusive")
    if args.faults:
        return FaultSchedule.load(args.faults)
    if args.churn_seed is not None:
        return generate_churn(
            seed=args.churn_seed,
            duration_s=units.hours(args.churn_hours),
            num_servers=len(cluster.servers),
            total_cache_mb=cluster.total_cache_mb,
        )
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    cluster = _build_cluster(args)
    jobs = load_trace(args.trace)
    tracing = bool(args.events or args.chrome_trace)
    tracer = Tracer() if tracing else None
    sim_kwargs = {"tracer": tracer}
    schedule = _build_fault_schedule(args, cluster)
    if schedule is not None:
        sim_kwargs["faults"] = schedule
        print(f"fault schedule: {len(schedule)} events")
    if args.simulator == "fluid":
        # The minibatch emulator reschedules every decision interval and
        # takes no reschedule knob.
        sim_kwargs["reschedule_interval_s"] = args.reschedule_s
    result = run_experiment(
        cluster,
        args.policy,
        args.cache,
        jobs,
        simulator=args.simulator,
        **sim_kwargs,
    )
    if tracer is not None:
        if args.events:
            save_events(tracer.events, args.events)
            print(f"events: {len(tracer.events)} -> {args.events}")
        if args.chrome_trace:
            save_chrome_trace(tracer.events, args.chrome_trace)
            print(f"chrome trace -> {args.chrome_trace}")
    rows = [
        {
            "metric": "average JCT (min)",
            "value": result.average_jct_minutes(),
        },
        {"metric": "makespan (min)", "value": result.makespan_minutes()},
        {
            "metric": "avg fairness ratio",
            "value": result.average_fairness_ratio(),
        },
        {
            "metric": "finished jobs",
            "value": f"{len(result.finished_records())}/{len(result.records)}",
        },
    ]
    print(
        render_table(
            rows, title=f"{args.policy} x {args.cache} on {args.trace}"
        )
    )
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    cluster = _build_cluster(args)
    jobs = load_trace(args.trace)
    results = run_matrix(
        cluster,
        jobs,
        policies=args.policies,
        caches=args.caches,
        reschedule_interval_s=args.reschedule_s,
    )
    rows = [
        {
            "scheduler": policy,
            "cache": cache,
            "avg JCT (min)": result.average_jct_minutes(),
            "makespan (min)": result.makespan_minutes(),
            "fairness": result.average_fairness_ratio(),
        }
        for (policy, cache), result in sorted(results.items())
    ]
    print(render_table(rows, title="scheduler x cache grid"))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    d_mb = units.gb(args.dataset_gb)
    c_mb = units.gb(args.cache_gb)
    throughput = perf_model.silod_perf(
        args.f_star, args.io_mbps, c_mb, d_mb
    )
    rows = [
        {"quantity": "SiloDPerf (MB/s)", "value": throughput},
        {
            "quantity": "bottleneck",
            "value": "compute"
            if throughput >= args.f_star - 1e-9
            else "data loading",
        },
        {
            "quantity": "cache hit ratio",
            "value": perf_model.hit_ratio(c_mb, d_mb),
        },
        {
            "quantity": "remote IO demand at f* (MB/s)",
            "value": perf_model.remote_io_demand(args.f_star, c_mb, d_mb),
        },
        {
            "quantity": "cache efficiency (MB/s per GB)",
            "value": perf_model.cache_efficiency(args.f_star, d_mb)
            * units.MB_PER_GB,
        },
    ]
    print(render_table(rows, title="SiloDPerf (Eq 4) estimate"))
    return 0


def _tail_events(target: str):
    """Subscribe to a running serve instance; return its full event log.

    Blocks until the service drains (the subscriber stream ends), so the
    rendered report covers the whole run — exactly what ``report`` on a
    saved log would show. The stream's header is checked as
    :func:`~repro.obs.export.load_events` checks a saved log's.
    """
    from repro.obs.events import Event
    from repro.obs.export import check_header
    from repro.serve.client import ServeClient

    host, _, port = target.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--tail expects HOST:PORT, got {target!r}")
    print(f"tailing {host}:{port} (report renders when the service exits)")
    events = []
    try:
        with ServeClient(host, int(port)) as client:
            stream = client.tail()
            header = next(stream, None)
            if header is not None:
                check_header(header, target)
            for obj in stream:
                events.append(Event.from_dict(obj))
    except (ConnectionError, OSError, json.JSONDecodeError) as exc:
        # A dropped socket mid-stream is an operational condition, not a
        # bug: report it plainly and render what already arrived.
        print(
            f"connection to {host}:{port} closed mid-stream "
            f"({type(exc).__name__}: {exc}); rendering the "
            f"{len(events)} events received so far — rerun "
            f"`repro report --tail {host}:{port}` to reconnect",
            file=sys.stderr,
        )
    return events


def _cmd_report(args: argparse.Namespace) -> int:
    if args.tail:
        events = _tail_events(args.tail)
    elif args.events:
        events = load_events(args.events)
    else:
        raise SystemExit("report needs an event-log path or --tail HOST:PORT")
    print(render_report(events, bins=args.bins))
    if args.slo:
        print()
        print(render_slo_report(events))
    if args.chrome_trace:
        save_chrome_trace(events, args.chrome_trace)
        print(f"chrome trace -> {args.chrome_trace}")
    if args.csv:
        save_timeline_csv(events, args.csv, bins=args.bins)
        print(f"timeline CSV -> {args.csv}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    events = load_events(args.events)
    print(render_explain(events, args.job_id))
    known = {e.job_id for e in events if e.job_id}
    if args.job_id not in known:
        print(
            f"note: {args.job_id!r} appears in no event of {args.events}; "
            f"known jobs: {', '.join(sorted(known)) or '(none)'}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SiloD reproduction: co-designed caching + scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="generate a synthetic trace")
    p_trace.add_argument("output", help="output JSONL path")
    p_trace.add_argument(
        "--jobs",
        type=_positive_int,
        default=300,
        help="number of jobs (default 300)",
    )
    p_trace.add_argument(
        "--seed", type=int, default=42, help="RNG seed (default 42)"
    )
    p_trace.add_argument(
        "--gpus",
        type=_positive_int,
        default=100,
        help="cluster size the load targets (default 100)",
    )
    p_trace.add_argument(
        "--load",
        type=_positive,
        default=1.5,
        help="target cluster load factor, > 0 (default 1.5; 1.0 keeps "
        "the cluster exactly busy, above 1.0 builds a queue)",
    )
    p_trace.add_argument(
        "--duration-median-min",
        type=_positive,
        default=360.0,
        help="median job duration in minutes (default 360)",
    )
    p_trace.add_argument(
        "--sharing",
        type=_fraction,
        default=0.0,
        help="fraction of jobs sharing pooled datasets, 0.0-1.0 "
        "(default 0.0 = every job brings its own dataset)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_run = sub.add_parser("run", help="simulate one configuration")
    p_run.add_argument("trace", help="trace JSONL path")
    p_run.add_argument(
        "--policy",
        default="fifo",
        choices=list(POLICY_FACTORIES),
        help="scheduling policy (default fifo)",
    )
    p_run.add_argument(
        "--cache",
        default="silod",
        choices=list(CACHE_FACTORIES),
        help="cache system (default silod)",
    )
    p_run.add_argument("--simulator", default="fluid",
                       choices=list(SIMULATORS),
                       help="simulator backend (default fluid)")
    p_run.add_argument(
        "--reschedule-s",
        type=float,
        default=1800.0,
        help="scheduling interval in seconds (default 1800; fluid only — "
        "the minibatch emulator reschedules every decision interval)",
    )
    p_run.add_argument(
        "--faults",
        default=None,
        metavar="PATH",
        help="fault-schedule JSON driving cluster churn (default: none; "
        "a list of {time_s, kind, target, magnitude} objects with kind "
        "one of server_crash, server_recover, cache_loss, cache_recover, "
        "bandwidth, job_preempt, job_restart — see docs/FAULTS.md; "
        "mutually exclusive with --churn-seed)",
    )
    p_run.add_argument(
        "--churn-seed",
        type=int,
        default=None,
        metavar="N",
        help="generate a seeded random churn schedule instead of loading "
        "one (default: no churn; same seed => same schedule)",
    )
    p_run.add_argument(
        "--churn-hours",
        type=float,
        default=24.0,
        metavar="H",
        help="horizon of the generated churn schedule in hours "
        "(default 24.0; only meaningful with --churn-seed)",
    )
    p_run.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="write a structured event log (JSONL) for `repro report`",
    )
    p_run.add_argument(
        "--chrome-trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON (open in Perfetto)",
    )
    _add_cluster_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_matrix = sub.add_parser("matrix", help="run a policy x cache grid")
    p_matrix.add_argument("trace", help="trace JSONL path")
    p_matrix.add_argument(
        "--policies",
        nargs="+",
        default=list(POLICIES),
        choices=list(POLICY_FACTORIES),
        help=f"policies to sweep (default: {' '.join(POLICIES)})",
    )
    p_matrix.add_argument(
        "--caches",
        nargs="+",
        default=list(CACHES),
        choices=list(CACHE_FACTORIES),
        help=f"cache systems to sweep (default: {' '.join(CACHES)})",
    )
    p_matrix.add_argument(
        "--reschedule-s",
        type=float,
        default=1800.0,
        help="scheduling interval in seconds (default 1800)",
    )
    _add_cluster_args(p_matrix)
    p_matrix.set_defaults(func=_cmd_matrix)

    p_est = sub.add_parser("estimate", help="evaluate SiloDPerf (Eq 4)")
    p_est.add_argument("--f-star", type=float, required=True,
                       help="compute-bound throughput, MB/s")
    p_est.add_argument(
        "--dataset-gb", type=float, required=True, help="dataset size in GB"
    )
    p_est.add_argument(
        "--cache-gb",
        type=float,
        default=0.0,
        help="cache allocation in GB (default 0)",
    )
    p_est.add_argument(
        "--io-mbps",
        type=float,
        default=0.0,
        help="remote-IO allocation in MB/s (default 0)",
    )
    p_est.set_defaults(func=_cmd_estimate)

    p_report = sub.add_parser(
        "report", help="summarize an event log from `run --events`"
    )
    p_report.add_argument(
        "events", nargs="?", default=None,
        help="event-log JSONL path (omit with --tail)",
    )
    p_report.add_argument(
        "--tail",
        default=None,
        metavar="HOST:PORT",
        help="subscribe to a running `repro serve` instance and render "
        "the report when it drains (instead of reading a saved log)",
    )
    p_report.add_argument(
        "--bins",
        type=int,
        default=24,
        help="time bins in the throughput timeline (default 24)",
    )
    p_report.add_argument(
        "--chrome-trace",
        default=None,
        metavar="PATH",
        help="also convert the log to Chrome trace_event JSON",
    )
    p_report.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="also write the binned timeline as CSV",
    )
    p_report.add_argument(
        "--slo",
        action="store_true",
        help="append the per-deadline-job SLO attainment table "
        "(jobs submitted with deadline_s; see docs/OBSERVABILITY.md)",
    )
    p_report.set_defaults(func=_cmd_report)

    p_explain = sub.add_parser(
        "explain",
        help="reconstruct one job's decision provenance from an event log",
    )
    p_explain.add_argument("events", help="event-log JSONL path")
    p_explain.add_argument(
        "job_id", help="the job to explain (its job_submit job_id)"
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_lint = sub.add_parser(
        "lint", help="run the invariant linter (repro.lint)"
    )
    configure_lint_parser(p_lint)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived online scheduler service (repro.serve)",
    )
    configure_serve_parser(p_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
