"""The asyncio service: sockets in front of one :class:`OnlineEngine`.

Single-threaded by construction: every request handler and the pump
loop run on one event loop, and the engine's methods are synchronous,
so engine state never needs locking — a handler's engine call is atomic
with respect to pumping. The pump loop processes simulator events up to
the clock watermark, then sleeps until either the watermark reaches the
next event (paced mode) or a request arrives (the wake event).

Connections speak the line-JSON protocol of :mod:`repro.serve.protocol`.
A ``subscribe`` request switches its connection to streaming mode: the
server replays the run's recorded events and then pushes each new event
as it is emitted, in the exact JSONL layout ``save_events`` writes
(version header first), so ``python -m repro report --tail`` can render
a live run with the batch reader.

An optional HTTP listener exposes read-only ``/status``, ``/metrics``,
and ``/healthz`` for curl/browser consumption of the same payloads.

:class:`ServerThread` hosts the whole stack on a dedicated event-loop
thread so synchronous tests can drive a real socket server without
touching asyncio themselves.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from typing import List, Optional, Tuple

from repro.obs.export import _HEADER as _EVENTS_HEADER
from repro.obs.prom import (
    PROMETHEUS_CONTENT_TYPE,
    render_metrics_response,
)
from repro.serve.engine import OnlineEngine
from repro.serve.protocol import (
    HELLO,
    MAX_LINE_BYTES,
    REJECT_SHUTTING_DOWN,
    REJECT_TOO_LARGE,
    ProtocolError,
    encode_response,
    parse_request,
    validate_request,
)

#: Simulator steps pumped per loop iteration before yielding to I/O.
_PUMP_BATCH = 512
#: Stream-reader slack above the protocol's line limit.
_READER_LIMIT = MAX_LINE_BYTES + 4096


class ServeServer:
    """Socket front-end and pump loop around one engine."""

    def __init__(
        self,
        engine: OnlineEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.http_port = http_port
        self._server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._wake = asyncio.Event()
        self._done = asyncio.Event()
        self._shutting_down = False
        self._drain = True
        self._pump_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._subscribers: List[asyncio.Queue] = []
        engine.tracer.add_sink(self._broadcast)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind, arm the engine, start pumping; returns (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=_READER_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http, self.host, self.http_port
            )
            self.http_port = self._http_server.sockets[0].getsockname()[1]
        self.engine.start()
        self._pump_task = asyncio.ensure_future(self._pump_loop())
        return self.host, self.port

    async def wait_closed(self) -> None:
        """Block until a shutdown request (or :meth:`request_shutdown`)."""
        await self._done.wait()

    def request_shutdown(self, drain: bool = True) -> None:
        """Flag shutdown; the pump loop performs it (signal-handler safe)."""
        if self._shutting_down:
            return
        self._shutting_down = True
        self._drain = drain
        self._wake.set()

    async def _finalize(self) -> None:
        if self._drain:
            self.engine.drain()
        else:
            self.engine.stop()
        # The service_stop event has been broadcast; let subscribers
        # flush, then close every listener.
        for queue in list(self._subscribers):
            queue.put_nowait(None)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
        # Give subscriber streams one scheduling round to flush, then
        # cancel whatever connections remain parked on a read.
        await asyncio.sleep(0)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._done.set()

    # ------------------------------------------------------------------
    # Pumping.
    # ------------------------------------------------------------------

    async def _pump_loop(self) -> None:
        while not self._shutting_down:
            pumped = self.engine.pump(max_steps=_PUMP_BATCH)
            if pumped >= _PUMP_BATCH:
                # More work is ready: yield once to serve I/O, continue.
                await asyncio.sleep(0)
                continue
            wait_s = self.engine.seconds_until_next()
            self._wake.clear()
            if self._shutting_down:
                break
            if wait_s is None:
                # Idle or paused — only a request can create work.
                await self._wake.wait()
            elif wait_s > 0:
                with contextlib.suppress(asyncio.TimeoutError, TimeoutError):
                    await asyncio.wait_for(self._wake.wait(), timeout=wait_s)
        await self._finalize()

    def _broadcast(self, event) -> None:
        for queue in self._subscribers:
            queue.put_nowait(event)

    # ------------------------------------------------------------------
    # Socket protocol.
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            writer.write(encode_response(HELLO))
            await writer.drain()
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the reader limit: reject, discard
                    # through the next newline, keep the connection.
                    writer.write(
                        encode_response(
                            ProtocolError(
                                REJECT_TOO_LARGE,
                                f"request line exceeds {MAX_LINE_BYTES} bytes",
                            ).to_response()
                        )
                    )
                    await writer.drain()
                    await self._discard_line(reader)
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                streaming = await self._handle_request(line, writer)
                if streaming:
                    return  # _stream_events owns the connection now
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _discard_line(self, reader: asyncio.StreamReader) -> None:
        while True:
            chunk = await reader.read(65536)
            if not chunk or b"\n" in chunk:
                return

    async def _handle_request(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request; True when the connection went streaming."""
        try:
            op, payload = validate_request(parse_request(line.rstrip(b"\n")))
        except ProtocolError as exc:
            writer.write(encode_response(exc.to_response()))
            await writer.drain()
            return False
        if self._shutting_down and op not in ("status", "metrics", "ping"):
            writer.write(
                encode_response(
                    ProtocolError(
                        REJECT_SHUTTING_DOWN, "service is shutting down"
                    ).to_response()
                )
            )
            await writer.drain()
            return False
        if op == "subscribe":
            writer.write(
                encode_response(
                    {"ok": True, "streaming": True, "events": len(self.engine.tracer)}
                )
            )
            await self._stream_events(writer)
            return True
        try:
            response = self._dispatch(op, payload)
        except ProtocolError as exc:
            response = exc.to_response()
        writer.write(encode_response(response))
        await writer.drain()
        if op == "shutdown":
            self.request_shutdown(drain=bool(payload.get("drain", True)))
        return False

    def _dispatch(self, op: str, payload: dict) -> dict:
        engine = self.engine
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "submit":
            response = engine.submit(payload["job"])
            self._wake.set()
            return response
        if op == "cancel":
            response = engine.cancel(
                payload["job_id"], reason=str(payload.get("reason", "user"))
            )
            self._wake.set()
            return response
        if op == "status":
            return engine.status()
        if op == "metrics":
            return engine.metrics()
        if op == "clock":
            response = engine.clock_op(
                payload["action"],
                to_s=payload.get("to_s"),
                speedup=payload.get("speedup"),
            )
            self._wake.set()
            return response
        if op == "shutdown":
            return {"ok": True, "draining": bool(payload.get("drain", True))}
        raise ProtocolError("unknown_op", f"unhandled op {op!r}")

    async def _stream_events(self, writer: asyncio.StreamWriter) -> None:
        """Replay the log, then tail live events until disconnect.

        Queue registration and the replay snapshot happen in one
        synchronous block, so no event can fall between them; anything
        emitted while the replay is being written lands in the queue.
        """
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        snapshot = list(self.engine.tracer.events)
        try:
            writer.write((json.dumps(_EVENTS_HEADER) + "\n").encode())
            for event in snapshot:
                writer.write((json.dumps(event.to_dict()) + "\n").encode())
            await writer.drain()
            last_seq = snapshot[-1].seq if snapshot else -1
            while True:
                event = await queue.get()
                if event is None:  # server shutdown sentinel
                    break
                if event.seq <= last_seq:
                    continue
                writer.write((json.dumps(event.to_dict()) + "\n").encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(ValueError):
                self._subscribers.remove(queue)
            with contextlib.suppress(Exception):
                writer.close()

    # ------------------------------------------------------------------
    # Minimal read-only HTTP.
    # ------------------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            while True:  # drain headers
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else ""
            if path == "/metrics":
                # Prometheus exposition text, not JSON — the one endpoint
                # a scraper points at (see docs/SERVE.md).
                payload = render_metrics_response(
                    self.engine.metrics()
                ).encode("utf-8")
                status = "200 OK"
                content_type = PROMETHEUS_CONTENT_TYPE
            else:
                if path == "/healthz":
                    body, status = {"ok": not self.engine.stopped}, "200 OK"
                elif path == "/status":
                    body, status = self.engine.status(), "200 OK"
                else:
                    body, status = (
                        {"ok": False, "error": "not_found"},
                        "404 Not Found",
                    )
                payload = json.dumps(body).encode()
                content_type = "application/json"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode()
                + payload
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()


async def serve_until_shutdown(
    server: ServeServer, announce: bool = True
) -> None:
    """Start ``server`` and block until it shuts itself down."""
    host, port = await server.start()
    if announce:
        print(f"serve: listening on {host}:{port}")
        if server.http_port is not None:
            print(f"serve: http on {host}:{server.http_port}")
    await server.wait_closed()


class ServerThread:
    """A real socket server on a dedicated event-loop thread.

    The synchronous harness the tests use: start it,
    talk to ``(host, port)`` with :class:`~repro.serve.client.ServeClient`
    from the calling thread, then ``stop()``/``join()``.
    """

    def __init__(self, server: ServeServer) -> None:
        self.server = server
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout_s: float = 10.0) -> Tuple[str, int]:
        """Boot the loop thread; returns the bound (host, port)."""
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("serve thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"serve thread failed to start: {self._startup_error}"
            )
        return self.server.host, self.server.port

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self.server.wait_closed()

    def stop(self, drain: bool = True) -> None:
        """Ask the server to shut down (thread-safe)."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(
                self.server.request_shutdown, drain
            )

    def join(self, timeout_s: float = 30.0) -> None:
        """Wait for the loop thread to exit; raise if it does not."""
        self._thread.join(timeout_s)
        if self._thread.is_alive():
            raise RuntimeError("serve thread did not exit in time")
