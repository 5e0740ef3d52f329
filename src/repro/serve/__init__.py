"""repro.serve — the long-lived online scheduler service.

Every other entry point is batch: build a trace, run, exit. This
package turns the reproduction into a *system*: ``python -m repro
serve`` boots a long-running asyncio process that accepts job
submissions, cancellations, and status/metrics queries over a
line-delimited-JSON socket (plus an optional minimal HTTP endpoint),
schedules continuously against simulated virtual time, and streams the
run's ``repro.obs`` events to live subscribers.

The :class:`~repro.serve.engine.OnlineEngine` owns the run: a bounded
:class:`~repro.serve.engine.AdmissionQueue` (backpressure) in front of
a simulator built by the batch factory
(:func:`repro.sim.runner.make_simulator`) from the existing
policy/cache registries. The simulators themselves
are the execution engine: they expose a stepped protocol
(``begin``/``step``/``finish``) that the online engine drives one event
at a time, so online and batch runs share a single code path and emit
identical event logs for the same submissions (verified by
``localize_divergence`` in the equivalence tests).

See ``docs/SERVE.md`` for the wire protocol, service decomposition, and
backpressure semantics.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.clock import VirtualClock
from repro.serve.engine import AdmissionQueue, OnlineEngine
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.server import ServeServer, ServerThread

__all__ = [
    "AdmissionQueue",
    "OnlineEngine",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "ServerThread",
    "VirtualClock",
]
