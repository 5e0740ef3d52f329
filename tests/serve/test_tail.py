"""`repro report --tail` transport behaviour on stream endings.

The tail helper must treat a dropped or truncated subscriber stream as
an operational condition — print a plain reconnect message and render
the events that did arrive — never a raw traceback.
"""

import threading

import pytest

from repro.cli import _tail_events
from repro.obs import load_events
from repro.serve import ServeClient, ServeServer, ServerThread

from .conftest import job_payload, make_engine

pytestmark = pytest.mark.serve

HELLO = b'{"kind": "repro-serve", "v": 1}\n'
ACK = b'{"ok": true, "streaming": true}\n'
HEADER = b'{"v": 1, "kind": "repro-events"}\n'
EVENT = (
    b'{"seq": 1, "ts_s": 0.0, "etype": "epoch_boundary", '
    b'"job_id": "j1", "epoch": 1}\n'
)


def test_tail_renders_partial_events_on_truncated_stream(
    scripted_server, capsys
):
    # One good event, then a line cut off mid-JSON with no newline —
    # what a killed server leaves in the client's buffer.
    host, port = scripted_server(
        HELLO + ACK + HEADER + EVENT + b'{"seq": 2, "ts_s": 1.0, "ety'
    )
    events = _tail_events(f"{host}:{port}")
    assert [e.etype for e in events] == ["epoch_boundary"]
    err = capsys.readouterr().err
    assert "closed mid-stream" in err
    assert f"--tail {host}:{port}" in err
    assert "Traceback" not in err


def test_tail_clean_eof_returns_everything(scripted_server, capsys):
    host, port = scripted_server(HELLO + ACK + HEADER + EVENT)
    events = _tail_events(f"{host}:{port}")
    assert [e.etype for e in events] == ["epoch_boundary"]
    # An orderly close is not an error: nothing on stderr.
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "header",
    [b'{"v": 2, "kind": "repro-events"}\n', b'{"kind": "something-else"}\n'],
)
def test_tail_checks_the_header_as_load_events_does(
    scripted_server, tmp_path, header
):
    # A stream of another version or kind is not parsed as a v1 log.
    path = tmp_path / "events.jsonl"
    path.write_bytes(header + EVENT)
    with pytest.raises(ValueError) as saved:
        load_events(path)
    host, port = scripted_server(HELLO + ACK + header + EVENT)
    with pytest.raises(ValueError) as tailed:
        _tail_events(f"{host}:{port}")
    assert str(tailed.value) == str(saved.value).replace(
        str(path), f"{host}:{port}"
    )


def test_tail_against_real_server_shutdown():
    """Killing a live server mid-subscribe must not raise in the tailer."""
    server = ServeServer(make_engine(queue_limit=8), port=0)
    thread = ServerThread(server)
    host, port = thread.start()
    result: dict = {}

    def tail():
        result["events"] = _tail_events(f"{host}:{port}")

    try:
        with ServeClient(host=host, port=port) as client:
            client.submit(job_payload("job-0"))
        tailer = threading.Thread(target=tail, daemon=True)
        tailer.start()
        # Give the subscriber time to connect and replay history, then
        # yank the server out from under it — no drain, no goodbye.
        tailer.join(timeout=1.0)
    finally:
        thread.stop(drain=False)
        thread.join()
    tailer.join(timeout=10.0)
    assert not tailer.is_alive()
    etypes = [e.etype for e in result["events"]]
    assert "service_start" in etypes


def test_tail_rejects_malformed_target():
    with pytest.raises(SystemExit):
        _tail_events("no-port-here")
