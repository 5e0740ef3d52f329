"""OBS004 fixture: out-of-scope caller of the simulator-scope wrapper."""

from repro.sim import audit


def replay(tracer):
    audit.record_round(tracer, 0.0)
