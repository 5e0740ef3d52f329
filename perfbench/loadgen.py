"""Single-threaded open-loop generator over one line-JSON connection.

Requests go out on a fixed schedule whatever the server is doing: the
generator never waits for a reply before sending the next request that
is due. Each request's latency is measured from when it was *due*, so a
stall of the server (or of the generator itself) is charged to every
request it delays. How late the generator sent each request (its lag)
and how many requests were outstanding (the backlog) are reported so a
reader can tell whether the generator or the service set the numbers.

The server answers one connection's requests in order, so the n-th
reply belongs to the n-th request sent.
"""

from __future__ import annotations

import dataclasses
import json
import selectors
import socket
import time
from collections import deque
from typing import List, Optional, Sequence, Tuple

#: Outcome codes of one request.
OK, REFUSED, NO_REPLY, DROPPED = "ok", "refused", "no_reply", "dropped"


@dataclasses.dataclass
class Request:
    """One scheduled request: due time (s after start), class, bytes."""

    due_s: float
    kind: str
    line: bytes


@dataclasses.dataclass
class Outcome:
    """What happened to one request."""

    kind: str
    status: str
    latency_s: float = float("nan")
    lag_s: float = 0.0


def run(
    sock: socket.socket,
    schedule: Sequence[Request],
    reply_timeout_s: float = 30.0,
) -> Tuple[List[Outcome], int]:
    """Send ``schedule`` open loop on ``sock``; returns (outcomes,
    backlog_max). ``sock`` must already have consumed the hello line; its
    timeout is restored on return."""
    clock = time.monotonic
    timeout_before = sock.gettimeout()
    sock.setblocking(False)
    # select(2) takes a microsecond timeout; epoll and poll round theirs
    # up to whole milliseconds, which would send every request up to a
    # millisecond late.
    selector = selectors.SelectSelector()
    selector.register(sock, selectors.EVENT_READ)
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)
    due_abs = []
    pending: deque = deque()
    outbuf = bytearray()
    inbuf = bytearray()
    backlog_max = 0
    sent = 0
    start = clock()
    last_progress = start
    writing = False
    try:
        while sent < len(schedule) or pending:
            now = clock()
            while sent < len(schedule) and start + schedule[sent].due_s <= now:
                request = schedule[sent]
                due = start + request.due_s
                due_abs.append(due)
                outbuf += request.line
                outcomes[sent] = Outcome(request.kind, NO_REPLY, lag_s=now - due)
                pending.append(sent)
                sent += 1
            backlog_max = max(backlog_max, len(pending))
            if outbuf:
                try:
                    n = sock.send(outbuf)
                    del outbuf[:n]
                except BlockingIOError:
                    pass
            want_write = bool(outbuf)
            if want_write != writing:
                selector.modify(
                    sock,
                    selectors.EVENT_READ
                    | (selectors.EVENT_WRITE if want_write else 0),
                )
                writing = want_write
            if sent < len(schedule):
                timeout = max(0.0, start + schedule[sent].due_s - clock())
            else:
                timeout = 0.05
            for _key, mask in selector.select(timeout):
                if not mask & selectors.EVENT_READ:
                    continue
                chunk = sock.recv(1 << 20)
                received = clock()
                if not chunk:
                    raise ConnectionError("server closed the connection")
                inbuf += chunk
                while True:
                    cut = inbuf.find(b"\n")
                    if cut < 0:
                        break
                    line = bytes(inbuf[:cut])
                    del inbuf[: cut + 1]
                    if not pending:
                        continue
                    index = pending.popleft()
                    reply = json.loads(line)
                    outcome = outcomes[index]
                    outcome.latency_s = received - due_abs[index]
                    outcome.status = OK if reply.get("ok") else REFUSED
                    last_progress = received
            if (
                pending
                and sent == len(schedule)
                and clock() - last_progress > reply_timeout_s
            ):
                break  # the rest never answered: they stay NO_REPLY
    except (ConnectionError, OSError):
        for index in pending:
            outcomes[index].status = DROPPED
        for index in range(sent, len(schedule)):
            outcomes[index] = Outcome(schedule[index].kind, DROPPED)
    finally:
        selector.close()
        sock.settimeout(timeout_before)
    return [o for o in outcomes if o is not None], backlog_max


def encode(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()
