"""Synchronous client for a running ``python -m repro serve``.

A thin, dependency-free socket wrapper over the line-JSON protocol:
one :class:`ServeClient` holds one connection, each method sends one
request and returns the decoded response object. Methods raise
:class:`ServeError` when the server answers ``ok: false``, so scripts
can write straight-line code::

    with ServeClient("127.0.0.1", 7171) as c:
        c.submit(job_to_dict(job))
        c.clock("resume", speedup=0)
        print(c.status()["jobs_finished"])
        c.shutdown(drain=True)

``tail()`` opens a *separate* subscriber connection and yields events
as dicts (the ``save_events`` JSONL layout) until the server closes —
the transport behind ``python -m repro report --tail``.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Iterator, Optional

from repro.serve.protocol import MAX_LINE_BYTES, PROTOCOL_VERSION


class ServeError(RuntimeError):
    """The server answered ``ok: false``."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


class ServeClient:
    """One request/response connection to a serve instance."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7171,
        timeout_s: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._file = self._sock.makefile("rwb")
        hello = self._read_line()
        if hello.get("kind") != "repro-serve":
            raise ServeError("bad_hello", f"unexpected hello {hello!r}")
        if hello.get("v") != PROTOCOL_VERSION:
            raise ServeError(
                "bad_hello", f"unsupported protocol version {hello.get('v')}"
            )

    # ------------------------------------------------------------------

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the stream and the underlying socket."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def _read_line(self) -> dict:
        line = self._file.readline(MAX_LINE_BYTES + 4096)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def request(self, op: str, **payload) -> dict:
        """Send one raw request; raise :class:`ServeError` on rejection."""
        message = {"op": op}
        message.update(payload)
        self._file.write((json.dumps(message) + "\n").encode("utf-8"))
        self._file.flush()
        response = self._read_line()
        if not response.get("ok", False):
            raise ServeError(
                str(response.get("error", "unknown")),
                str(response.get("detail", "")),
            )
        return response

    # ------------------------------------------------------------------
    # Ops.
    # ------------------------------------------------------------------

    def ping(self) -> dict:
        """Liveness probe."""
        return self.request("ping")

    def submit(self, job: dict) -> dict:
        """Submit one trace-format job dict (``trace_io.job_to_dict``)."""
        return self.request("submit", job=job)

    def cancel(self, job_id: str, reason: str = "user") -> dict:
        """Cancel a queued or running job."""
        return self.request("cancel", job_id=job_id, reason=reason)

    def status(self) -> dict:
        """The service's current view (clock, jobs, services)."""
        return self.request("status")

    def metrics(self) -> dict:
        """Registry snapshot plus serve-level latency percentiles."""
        return self.request("metrics")

    def clock(
        self,
        action: str,
        to_s: Optional[float] = None,
        speedup: Optional[float] = None,
    ) -> dict:
        """``pause`` / ``resume`` / ``step`` the service's virtual clock."""
        payload: Dict[str, object] = {"action": action}
        if to_s is not None:
            payload["to_s"] = to_s
        if speedup is not None:
            payload["speedup"] = speedup
        return self.request("clock", **payload)

    def shutdown(self, drain: bool = True) -> dict:
        """Ask the server to exit; with ``drain`` it runs the backlog dry."""
        return self.request("shutdown", drain=drain)

    def tail(self) -> Iterator[dict]:
        """Subscribe on a fresh connection; yield event dicts until EOF.

        The first yielded object is the JSONL header
        (``{"v": 1, "kind": "repro-events"}``); every subsequent one is
        an ``Event.to_dict()`` payload, replayed history first, then
        live events as the service emits them.
        """
        sock = socket.create_connection((self.host, self.port), timeout=None)
        file = sock.makefile("rb")
        try:
            json.loads(file.readline().decode("utf-8"))  # hello
            sock.sendall(b'{"op": "subscribe"}\n')
            ack = json.loads(file.readline().decode("utf-8"))
            if not ack.get("ok", False):
                raise ServeError(
                    str(ack.get("error", "unknown")),
                    str(ack.get("detail", "")),
                )
            for raw in file:
                raw = raw.strip()
                if raw:
                    yield json.loads(raw.decode("utf-8"))
        finally:
            file.close()
            sock.close()
