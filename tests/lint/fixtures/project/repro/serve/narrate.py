"""OBS004 fixture: an in-scope wrapper that emits a service event.

The emit line itself is legal (this file is under ``repro/serve/``);
the bug is calling this helper from outside the scope.
"""


def announce(tracer, ts_s):
    tracer.emit(ts_s, "service_start", port=0)
