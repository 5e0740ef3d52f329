"""CLI wiring for ``python -m repro serve``.

Kept in the serve package (same pattern as ``repro.lint.cli``): the
main CLI calls :func:`configure_parser` on its
``serve`` subparser, and :func:`cmd_serve` builds the stack and runs the
asyncio server until a shutdown request (socket ``shutdown`` op or
SIGINT/SIGTERM) drains it. Helpers shared with the batch commands
(cluster args, fault schedules) are imported from ``repro.cli`` lazily
— at ``cmd_serve`` time — to keep the module import graph acyclic.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal

from repro.obs.export import save_events
from repro.obs.stream import StreamingTracer
from repro.serve.clock import VirtualClock
from repro.serve.engine import OnlineEngine
from repro.serve.server import ServeServer, serve_until_shutdown
from repro.serve.services import ServiceStack
from repro.sim.runner import CACHES, POLICIES


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach serve options; ``parser`` is the ``serve`` subparser."""
    # Lazy: repro.cli imports this module while it is itself loading.
    from repro.cli import _add_cluster_args

    _add_cluster_args(parser)
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=7171,
        help="line-JSON socket port (default 7171; 0 = ephemeral)",
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also expose read-only HTTP /status /metrics /healthz "
        "(default: no HTTP listener; 0 = ephemeral)",
    )
    parser.add_argument(
        "--policy",
        default="fifo",
        help=f"scheduling policy (default fifo; one of {', '.join(POLICIES)})",
    )
    parser.add_argument(
        "--cache",
        default="silod",
        help=f"cache system (default silod; one of {', '.join(CACHES)})",
    )
    parser.add_argument(
        "--simulator",
        default="fluid",
        choices=["fluid", "minibatch"],
        help="simulator backend (default fluid)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="admission-queue depth before submissions bounce with "
        "queue_full (default 64)",
    )
    parser.add_argument(
        "--speedup",
        type=float,
        default=0.0,
        metavar="X",
        help="virtual seconds per wall second (default 0 = as fast as "
        "possible; e.g. 60 = one virtual minute per second)",
    )
    parser.add_argument(
        "--paused",
        action="store_true",
        help="start with the virtual clock paused; release it with the "
        "clock op (deterministic staging for tests and replays)",
    )
    parser.add_argument(
        "--reschedule-s",
        type=float,
        default=1800.0,
        help="scheduling interval in seconds (default 1800; fluid only — "
        "the minibatch emulator reschedules every decision interval)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PATH",
        help="fault-schedule JSON driving cluster churn in the live loop "
        "(see docs/FAULTS.md; mutually exclusive with --churn-seed)",
    )
    parser.add_argument(
        "--churn-seed",
        type=int,
        default=None,
        metavar="N",
        help="generate a seeded random churn schedule instead of loading "
        "one (default: no churn; same seed => same schedule)",
    )
    parser.add_argument(
        "--churn-hours",
        type=float,
        default=24.0,
        metavar="H",
        help="horizon of the generated churn schedule in hours "
        "(default 24.0; only meaningful with --churn-seed)",
    )
    parser.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="write the run's event log (JSONL) when the service exits",
    )
    parser.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="cap the in-memory event log (default: unbounded; live "
        "subscribers still see every event)",
    )
    parser.set_defaults(func=cmd_serve)


def build_server(args: argparse.Namespace) -> ServeServer:
    """Construct the full stack (cluster, engine, server) from args."""
    # Lazy: repro.cli imports this module at parser-build time.
    from repro.cli import _build_cluster, _build_fault_schedule

    cluster = _build_cluster(args)
    stack = ServiceStack.build(
        args.policy, args.cache, queue_limit=args.queue_limit
    )
    clock = VirtualClock(
        speedup=args.speedup or None, start_paused=args.paused
    )
    sim_kwargs = {}
    schedule = _build_fault_schedule(args, cluster)
    if schedule is not None:
        sim_kwargs["faults"] = schedule
        print(f"fault schedule: {len(schedule)} events")
    if args.simulator == "fluid":
        sim_kwargs["reschedule_interval_s"] = args.reschedule_s
    engine = OnlineEngine(
        cluster,
        stack,
        clock=clock,
        simulator=args.simulator,
        tracer=StreamingTracer(max_events=args.max_events),
        **sim_kwargs,
    )
    return ServeServer(
        engine, host=args.host, port=args.port, http_port=args.http_port
    )


async def _amain(server: ServeServer) -> None:
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, server.request_shutdown, True)
    await serve_until_shutdown(server)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the service until a shutdown request or signal drains it."""
    server = build_server(args)
    asyncio.run(_amain(server))
    engine = server.engine
    result = engine.result
    if result is not None:
        print(
            f"serve: drained after {engine.jobs_submitted} submissions, "
            f"{engine.jobs_finished} finished, "
            f"virtual time {engine.sim.clock_s:.1f}s, "
            f"{engine.sim.sched_rounds} scheduling rounds"
        )
    if args.events:
        save_events(engine.tracer.events, args.events)
        print(f"events: {len(engine.tracer.events)} -> {args.events}")
    return 0
