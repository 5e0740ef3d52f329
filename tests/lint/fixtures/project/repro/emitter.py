"""DET fixture: the sink; the wall clock it records is two hops away."""

from repro import middle


def record(tracer):
    tracer.emit(0.0, "job_submit", stamp=middle.stamp())
