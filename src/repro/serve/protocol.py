"""The wire protocol of ``python -m repro serve``.

Line-delimited JSON over a plain TCP socket: every request is one JSON
object on one line, every response is one JSON object on one line. On
connect, the server sends a hello line identifying itself and the
protocol version::

    {"kind": "repro-serve", "v": 1}

Requests carry an ``op`` field; everything else is op-specific::

    {"op": "submit", "job": {...trace-format job...}}
    {"op": "cancel", "job_id": "job-7"}
    {"op": "status"}
    {"op": "metrics"}
    {"op": "clock", "action": "pause" | "resume" | "step",
     "to_s": 3600.0, "speedup": 60.0}
    {"op": "subscribe"}
    {"op": "shutdown", "drain": true}
    {"op": "ping"}

Responses are ``{"ok": true, ...}`` on success and ``{"ok": false,
"error": <reason>, "detail": <human text>}`` on failure, where
``error`` is one of the machine-readable :data:`REJECT_REASONS`. A
malformed request never kills the connection — the server answers with
``ok: false`` and keeps reading. After a successful ``subscribe`` the
connection switches to streaming mode: the server replays the run's
``repro.obs`` events so far and then pushes each new event as one JSONL
line (the same layout ``save_events`` writes), which is what ``python
-m repro report --tail`` consumes.

Job payloads reuse the trace format (``repro.workloads.trace_io``)
verbatim, so a trace line can be submitted as-is and datasets shared by
name keep their sharing semantics online.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Tuple

#: Protocol version in the hello line; bump on wire-format changes.
PROTOCOL_VERSION = 1

#: The hello object the server writes on every new connection.
HELLO = {"kind": "repro-serve", "v": PROTOCOL_VERSION}

#: Longest accepted request line, bytes. Longer lines are rejected with
#: ``too_large`` (and the oversized payload is discarded, not parsed).
MAX_LINE_BYTES = 1_000_000

#: Operations the server understands.
OPS = (
    "submit",
    "cancel",
    "status",
    "metrics",
    "clock",
    "subscribe",
    "shutdown",
    "ping",
)

#: Machine-readable rejection reasons (the ``error`` field, and the
#: ``reason`` field of ``job_reject`` events where applicable).
REJECT_BAD_JSON = "bad_json"
REJECT_UNKNOWN_OP = "unknown_op"
REJECT_INVALID = "invalid_request"
REJECT_TOO_LARGE = "too_large"
REJECT_DUPLICATE = "duplicate_id"
REJECT_QUEUE_FULL = "queue_full"
REJECT_SHUTTING_DOWN = "shutting_down"

REJECT_REASONS = (
    REJECT_BAD_JSON,
    REJECT_UNKNOWN_OP,
    REJECT_INVALID,
    REJECT_TOO_LARGE,
    REJECT_DUPLICATE,
    REJECT_QUEUE_FULL,
    REJECT_SHUTTING_DOWN,
)

#: Accepted ``action`` values of the ``clock`` op.
CLOCK_ACTIONS = ("pause", "resume", "step")


class ProtocolError(Exception):
    """A request the server must reject, with a machine-readable reason."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason
        self.detail = detail

    def to_response(self) -> dict:
        """The ``ok: false`` object answering the offending request."""
        return {"ok": False, "error": self.reason, "detail": self.detail}


def parse_request(line: bytes) -> Dict[str, Any]:
    """Decode one request line; raise :class:`ProtocolError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            REJECT_TOO_LARGE,
            f"request line exceeds {MAX_LINE_BYTES} bytes",
        )
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(REJECT_BAD_JSON, f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(
            REJECT_INVALID, "request must be a JSON object"
        )
    return data


def _is_finite_number(value: Any) -> bool:
    """Whether ``value`` is an int or float (not a bool) a float can
    hold finitely. ``json.loads`` reads ``NaN`` and ``Infinity``, which
    no reply may carry (RFC 8259 has no such numbers)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def validate_request(data: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Check the envelope; return ``(op, payload)`` or raise."""
    op = data.get("op")
    if not isinstance(op, str):
        raise ProtocolError(REJECT_INVALID, "missing string field 'op'")
    if op not in OPS:
        raise ProtocolError(
            REJECT_UNKNOWN_OP,
            f"unknown op {op!r}; expected one of {', '.join(OPS)}",
        )
    payload = {k: v for k, v in data.items() if k != "op"}
    if op == "submit":
        job = payload.get("job")
        if not isinstance(job, dict):
            raise ProtocolError(
                REJECT_INVALID, "submit requires an object field 'job'"
            )
        deadline = job.get("deadline_s")
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or deadline <= 0
        ):
            raise ProtocolError(
                REJECT_INVALID,
                "job.deadline_s must be a positive number when present",
            )
    elif op == "cancel":
        if not isinstance(payload.get("job_id"), str):
            raise ProtocolError(
                REJECT_INVALID, "cancel requires a string field 'job_id'"
            )
    elif op == "clock":
        action = payload.get("action")
        if action not in CLOCK_ACTIONS:
            raise ProtocolError(
                REJECT_INVALID,
                f"clock action must be one of {', '.join(CLOCK_ACTIONS)}",
            )
        to_s = payload.get("to_s")
        if (action == "step" or to_s is not None) and not _is_finite_number(
            to_s
        ):
            raise ProtocolError(
                REJECT_INVALID,
                "clock to_s must be a finite number (step requires it)",
            )
        speedup = payload.get("speedup")
        if speedup is not None and (
            not _is_finite_number(speedup) or speedup < 0
        ):
            raise ProtocolError(
                REJECT_INVALID,
                "clock speedup must be a finite non-negative number "
                "(0 = as fast as possible)",
            )
    return op, payload


def encode_response(response: dict) -> bytes:
    """One response object as one JSONL line."""
    return (json.dumps(response) + "\n").encode("utf-8")
