"""OBS004 fixture: out-of-scope caller of the service-scope wrapper."""

from repro.serve import narrate


def drive(tracer):
    narrate.announce(tracer, 0.0)
