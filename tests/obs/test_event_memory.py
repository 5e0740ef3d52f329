"""Memory pin: the bytes each kept event costs the tracer's list.

An event is one flat tuple whose field names are a shared per-layout
tuple, so a kept event holds its values and little else. This runs one
traced fluid anchor cell under ``tracemalloc`` and measures what
``tracer.events`` alone keeps alive: the traced memory freed by
clearing the list, divided by the events it held. On CPython 3.11 the
cell keeps about 294 B per event; an event holding a per-event field
dict kept about 512 B.
"""

import gc
import tracemalloc

import pytest

from repro.obs import Tracer
from tests.sim import test_fluid_anchors as fluid_anchors

pytestmark = pytest.mark.obs

#: Upper bound on the bytes one kept event costs, between the flat
#: layout's figure and the per-event-dict layout's.
MAX_BYTES_PER_EVENT = 400


def test_kept_events_cost_less_than_a_field_dict_each():
    tracemalloc.start()
    try:
        tracer = Tracer()
        sim = fluid_anchors.build_cell("shared", tracer=tracer)
        fluid_anchors.run_sim(sim, "shared")
        kept = len(tracer.events)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracer.events.clear()
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept > 1000
    assert freed / kept < MAX_BYTES_PER_EVENT, freed / kept
