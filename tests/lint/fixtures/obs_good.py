"""Fixture: the clean twin of ``obs_bad`` — schema-conformant emits."""

from repro.obs import events as ev


def emit_conformant(tracer, ts_s: float) -> None:
    """Declared types, exact field sets, both etype spellings."""
    tracer.emit(ts_s, ev.JOB_FINISH, "j1", jct_s=1.0, epochs_done=2)
    tracer.emit(ts_s, "epoch_boundary", "j1", epoch=1)
    tracer.emit(ts_s, ev.EPOCH_BOUNDARY, "j1", epoch=3)
    etype = pick_a_type()
    tracer.emit(ts_s, etype, "j1")  # dynamic: left to runtime validation


def pick_a_type() -> str:
    """A dynamic event type the static pass cannot resolve."""
    return "job_finish"
