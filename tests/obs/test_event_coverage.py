"""Every event type in the schema is exercised by at least one test.

A meta-test over the tests tree: when someone adds an event type to
``repro.obs.events.EVENT_TYPES`` without touching any test, this is the
test that fails — the schema's contract is only as good as the suite
that pins it down.
"""

import re
from pathlib import Path

import pytest

from repro.obs import events as ev

pytestmark = pytest.mark.obs

TESTS_DIR = Path(__file__).resolve().parents[1]


def _tests_corpus() -> str:
    parts = []
    for path in sorted(TESTS_DIR.rglob("*.py")):
        if path.name != Path(__file__).name:
            parts.append(path.read_text(encoding="utf-8"))
    return "\n".join(parts)


def test_every_event_type_appears_in_some_test():
    corpus = _tests_corpus()
    # An event type counts as exercised when its name appears as a
    # whole token — a quoted literal ("job_submit"), as the event type
    # of an emit or in an assertion on the recorded events.
    unexercised = [
        etype
        for etype in ev.EVENT_TYPES
        if not re.search(rf"\b{re.escape(etype)}\b", corpus)
    ]
    assert not unexercised, (
        "event types declared in repro/obs/events.py but never named in "
        f"any test: {unexercised}; add a test that emits or asserts on "
        "each of them"
    )


def test_every_event_type_has_a_field_schema():
    assert set(ev.EVENT_FIELDS) == set(ev.EVENT_TYPES)
