"""The tracer's inlined event counting ≡ the per-event ``inc`` calls.

``Tracer._count_event`` writes an event's registry updates straight
into the scope dicts from a per-type plan. ``OracleTracer``
(``tests/obs/registry_oracle.py``) applies the same event through the
pre-change ``MetricsRegistry.inc`` / ``observe`` calls. Random emit
sequences over every event type, with snapshots taken in between (a
snapshot re-sorts only the scopes a new name marked unsorted), must
give the same snapshot JSON, job ids, drop count and events, for both
the recording and the streaming tracer.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import EVENT_FIELDS, StreamingTracer, Tracer

from .registry_oracle import OracleTracer

pytestmark = pytest.mark.obs

#: Field values: few distinct numbers, signed zeros and infinities
#: included, ints beside floats (a counter's first value is 0.0 + it).
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.25, 3, 7, float("inf")]),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
COUNTS = st.integers(0, 12)
#: Cluster-scoped events, the empty id, and ids whose sorted order
#: differs from any natural insertion order.
JOB_IDS = st.sampled_from([None, None, "", "j0", "job-10", "job-2"])
STEPS = st.sampled_from([0.0, 0.5, 2.0])


def _field(name: str):
    if name == "capped":
        return st.booleans()
    if name in ("num_jobs", "num_running"):
        return COUNTS
    return VALUES


def _emit(etype: str):
    return st.tuples(
        st.just("emit"),
        st.just(etype),
        JOB_IDS,
        st.fixed_dictionaries(
            {name: _field(name) for name in EVENT_FIELDS[etype]}
        ),
        STEPS,
    )


OPS = st.one_of(
    st.sampled_from(sorted(EVENT_FIELDS)).flatmap(_emit),
    st.tuples(st.just("snapshot")),
)


def _assert_same(tracer, oracle) -> None:
    assert json.dumps(tracer.metrics.snapshot()) == json.dumps(
        oracle.metrics.snapshot()
    )
    assert tracer.metrics.job_ids() == oracle.metrics.job_ids()
    assert tracer.dropped == oracle.dropped
    assert len(tracer) == len(oracle.events)
    kept = [
        (e.ts_s, e.etype, e.job_id, e.fields, e.seq) for e in tracer.events
    ]
    # ``repr`` tells signed zeros and ints from floats apart.
    assert repr(kept) == repr(oracle.events)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(OPS, max_size=50),
    max_events=st.sampled_from([None, None, 0, 1, 4]),
    streaming=st.booleans(),
)
def test_tracer_counts_like_the_inc_calls(ops, max_events, streaming):
    if streaming:
        tracer = StreamingTracer(max_events=max_events)
        streamed = []
        tracer.add_sink(streamed.append)
    else:
        tracer = Tracer(max_events=max_events)
    oracle = OracleTracer(max_events=max_events)
    ts_s = 0.0
    emitted = 0
    for op in ops:
        if op[0] == "snapshot":
            _assert_same(tracer, oracle)
            continue
        _, etype, job_id, fields, step = op
        ts_s += step
        tracer.emit(ts_s, etype, job_id, **fields)
        oracle.emit(ts_s, etype, job_id, **fields)
        emitted += 1
    _assert_same(tracer, oracle)
    if streaming:
        # Sinks see every event, dropped ones included, in order.
        assert [e.seq for e in streamed] == list(range(1, emitted + 1))
        assert streamed[: len(tracer.events)] == tracer.events
