"""OBS004 fixture: an in-scope wrapper that emits a simulator event.

The emit line itself is legal (this file is under ``repro/sim/``); the
bug is calling this helper from outside the scope.
"""


def record_round(tracer, ts_s):
    tracer.emit(
        ts_s,
        "decision_epoch",
        round=1,
        trigger="arrival",
        num_running=0,
        num_queued=0,
        gpus_total=8.0,
        cache_total_mb=0.0,
        io_total_mbps=0.0,
    )
