"""Wire-protocol parsing and validation (`repro.serve.protocol`)."""

import json

import pytest

from repro.serve.protocol import (
    HELLO,
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    REJECT_BAD_JSON,
    REJECT_INVALID,
    REJECT_REASONS,
    REJECT_TOO_LARGE,
    REJECT_UNKNOWN_OP,
    ProtocolError,
    encode_response,
    parse_request,
    validate_request,
)

pytestmark = pytest.mark.serve


def _line(obj) -> bytes:
    return json.dumps(obj).encode()


def test_hello_names_the_protocol_and_version():
    assert HELLO["kind"] == "repro-serve"
    assert HELLO["v"] == PROTOCOL_VERSION == 1


def test_parse_then_validate_round_trips_every_op():
    payloads = {
        "submit": {"job": {"job_id": "j1"}},
        "cancel": {"job_id": "j1"},
        "clock": {"action": "pause"},
    }
    for op in OPS:
        data = parse_request(_line({"op": op, **payloads.get(op, {})}))
        parsed_op, payload = validate_request(data)
        assert parsed_op == op
        assert "op" not in payload


@pytest.mark.parametrize(
    "raw,reason",
    [
        (b"{not json", REJECT_BAD_JSON),
        (_line([1, 2, 3]), REJECT_INVALID),
        (_line({"op": "teleport"}), REJECT_UNKNOWN_OP),
        (_line({"no_op": True}), REJECT_INVALID),
        (b"x" * (MAX_LINE_BYTES + 1), REJECT_TOO_LARGE),
    ],
)
def test_malformed_requests_reject_with_machine_readable_reason(raw, reason):
    with pytest.raises(ProtocolError) as err:
        op, payload = validate_request(parse_request(raw))
    assert err.value.reason == reason
    assert err.value.reason in REJECT_REASONS


@pytest.mark.parametrize(
    "request_obj",
    [
        {"op": "submit"},  # no job
        {"op": "submit", "job": "not-a-dict"},
        {"op": "cancel"},  # no job_id
        {"op": "cancel", "job_id": 7},
        {"op": "clock"},  # no action
        {"op": "clock", "action": "warp"},
        {"op": "clock", "action": "step"},  # step needs to_s
        {"op": "clock", "action": "step", "to_s": "soon"},
        {"op": "clock", "action": "resume", "speedup": -2},
    ],
)
def test_payload_validation_rejects_invalid_requests(request_obj):
    with pytest.raises(ProtocolError) as err:
        validate_request(parse_request(_line(request_obj)))
    assert err.value.reason == REJECT_INVALID


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), True],
    ids=["NaN", "Infinity", "-Infinity", "true"],
)
@pytest.mark.parametrize(
    "action,name", [("step", "to_s"), ("resume", "speedup")],
    ids=["to_s", "speedup"],
)
def test_clock_rejects_non_finite_and_boolean_numbers(action, name, value):
    # A NaN watermark or speedup would make every later clock and status
    # reply invalid JSON; json.dumps writes the tokens json.loads reads.
    raw = _line({"op": "clock", "action": action, name: value})
    with pytest.raises(ProtocolError) as err:
        validate_request(parse_request(raw))
    assert err.value.reason == REJECT_INVALID
    assert name in err.value.detail


def test_protocol_error_renders_an_error_response():
    response = ProtocolError(REJECT_INVALID, "bad job").to_response()
    assert response == {
        "ok": False,
        "error": REJECT_INVALID,
        "detail": "bad job",
    }


def test_encode_response_is_one_json_line():
    encoded = encode_response({"ok": True, "job_id": "j1"})
    assert encoded.endswith(b"\n")
    assert encoded.count(b"\n") == 1
    assert json.loads(encoded) == {"ok": True, "job_id": "j1"}


@pytest.mark.parametrize("bad", ["tomorrow", -1.0, 0, True, []])
def test_submit_rejects_malformed_deadline(bad):
    from .conftest import job_payload

    job = {**job_payload("j1"), "deadline_s": bad}
    with pytest.raises(ProtocolError) as err:
        validate_request(parse_request(_line({"op": "submit", "job": job})))
    assert err.value.reason == REJECT_INVALID
    assert "deadline_s" in err.value.detail


def test_submit_accepts_valid_or_absent_deadline():
    from .conftest import job_payload

    with_deadline = {**job_payload("j1"), "deadline_s": 3600.0}
    op, payload = validate_request(
        parse_request(_line({"op": "submit", "job": with_deadline}))
    )
    assert op == "submit" and payload["job"]["deadline_s"] == 3600.0
    op, payload = validate_request(
        parse_request(_line({"op": "submit", "job": job_payload("j2")}))
    )
    assert op == "submit" and "deadline_s" not in payload["job"]
