"""Fixture: event-schema violations for the obs-schema pass."""

from repro.obs import events as ev


def emit_drifted(tracer, ts_s: float) -> None:
    """Undeclared types and field drift against repro.obs.events."""
    tracer.emit(ts_s, "job_teleport", "j1", reason="warp")  # OBS001
    tracer.emit(ts_s, ev.JOB_TELEPORT, "j1", reason="warp")  # OBS001
    tracer.emit(ts_s, "job_finish", "j1", jct_s=1.0)  # OBS002: missing
    tracer.emit(
        ts_s, ev.JOB_FINISH, "j1", jct_s=1.0, epochs_done=2, mood="good"
    )  # OBS002: extra
    tracer.emit(ts_s, ev.EPOCH_BOUNDARY, "j1", epoch=3, flavour="x")  # OBS002
    # Service-lifecycle events outside repro/serve/: scope violations.
    tracer.emit(  # OBS004
        ts_s, ev.SERVICE_START, policy="fifo", cache="silod",
        simulator="fluid", gpus=16.0, queue_limit=64,
    )
    tracer.emit(  # OBS004
        ts_s, ev.CLOCK_SET, action="pause", speedup=0.0, virtual_s=ts_s
    )
    # Simulator-scoped events outside repro/sim/: scope violations.
    tracer.emit(  # OBS004
        ts_s, ev.SLO_WARN, "j1", deadline_s=60.0, elapsed_s=50.0,
        remaining_s=10.0, ratio=0.83,
    )
    provenance = {"round": 1, "gpus": 1.0, "score": 0.5}
    tracer.emit(ts_s, ev.DECISION_JOB, "j1", **provenance)  # OBS004
