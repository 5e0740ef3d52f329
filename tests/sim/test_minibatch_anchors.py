"""Bit-exact anchors of the minibatch emulator.

The emulator's item loop and its shuffles are optimised by hand, so a
change that perturbs a single draw, a float accumulation order or a
``max()`` tie would silently move every result. These anchors pin a
small trace per cache system (uniform caches, the shared LRU pool,
per-job keys and prefetching), a mid-epoch preemption that replays the
same item order, an IO starvation that takes the loop's stall branch,
and a cache loss whose random evictions (``UniformItemCache.resize``)
decide which later reads still hit. Each cell runs untraced and
traced: both must land on the same ``repr`` of every finish time, and
the traced run's event stream is hashed as well.
"""

import hashlib
import json

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.faults import FaultEvent
from repro.obs import Tracer
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system

GB = 1024.0

#: Event fields carrying wall-clock time, left out of the stream hash.
_WALL_CLOCK_FIELDS = {"latency_ms"}


def _job(job_id, dataset, d_gb, f_star, gpus, epochs, submit):
    return Job(
        job_id=job_id,
        model="anchor",
        dataset=Dataset(dataset, d_gb * GB),
        num_gpus=gpus,
        ideal_throughput_mbps=f_star,
        total_work_mb=epochs * d_gb * GB,
        submit_time_s=submit,
    )


def anchor_jobs():
    """Two shared datasets, two private ones, more demand than GPUs."""
    return [
        _job("a", "d-shared", 24.0, 120.0, 1, 3.0, 0.0),
        _job("b", "d-shared", 24.0, 80.0, 2, 2.0, 60.0),
        _job("c", "d-big", 40.0, 150.0, 2, 1.5, 200.0),
        _job("d", "d-small", 12.0, 60.0, 1, 4.0, 400.0),
        _job("e", "d-big", 40.0, 100.0, 4, 1.0, 900.0),
        _job("f", "d-f", 16.0, 200.0, 1, 2.5, 1500.0),
    ]


#: name -> (policy, cache, fault schedule)
CELLS = {
    "silod": ("fifo", "silod", None),
    "alluxio": ("fifo", "alluxio", None),
    "coordl": ("fifo", "coordl", None),
    "silod-prefetch": ("fifo", "silod-prefetch", None),
    # Job a is mid-epoch at t=500; the rollback replays its epoch in the
    # same order before the restart lets it run again.
    "preempt": (
        "fifo",
        "silod",
        [
            FaultEvent(500.0, "job_preempt", target="a"),
            FaultEvent(800.0, "job_restart", target="a"),
        ],
    ),
    # At t=700 the pool loses half its capacity and gets it back
    # empty: every uniform cache drops a random half of its items
    # through ``UniformItemCache.resize``, so the victims pick which
    # later reads still hit.
    "silod-cache-loss": (
        "fifo",
        "silod",
        [
            FaultEvent(700.0, "cache_loss", magnitude=24.0 * GB),
            FaultEvent(700.0, "cache_recover", magnitude=24.0 * GB),
        ],
    ),
    # SJF hands the throttled egress to the shortest jobs; the rest keep
    # their GPUs with a zero IO grant and stall on their first miss.
    "stall": (
        "sjf",
        "silod",
        [
            FaultEvent(300.0, "bandwidth", magnitude=0.05),
            FaultEvent(1800.0, "bandwidth", magnitude=1.0),
        ],
    ),
}


def run_cell(name, traced):
    policy, cache, faults = CELLS[name]
    scheduler, cache_system = make_system(policy, cache)
    tracer = Tracer() if traced else None
    emulator = MinibatchEmulator(
        Cluster.build(1, 4, 48.0 * GB, 150.0),
        scheduler,
        cache_system,
        anchor_jobs(),
        item_size_mb=128.0,
        decision_interval_s=60.0,
        faults=faults,
        tracer=tracer,
    )
    result = emulator.run()
    anchors = {
        "end_time_s": repr(result.end_time_s),
        "jct_s": {r.job_id: repr(r.jct_s) for r in result.finished_records()},
        "loop_events": emulator.loop_events,
        "sched_rounds": emulator.sched_rounds,
    }
    return anchors, tracer


def event_digest(tracer):
    """16 hex digits of SHA-256 over the event stream's JSON."""
    stream = [
        {
            k: v
            for k, v in event.to_dict().items()
            if k not in _WALL_CLOCK_FIELDS
        }
        for event in tracer.events
    ]
    blob = json.dumps(stream, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


#: Recorded before the item loop was optimised; see the module docstring.
EXPECTED = {
    "alluxio": {
        "end_time_s": "2220.0",
        "jct_s": {
            "a": "630.9731343283626",
            "b": "614.5706666666719",
            "c": "870.4533333333366",
            "d": "1129.600000000025",
            "e": "1070.4533333333245",
            "f": "653.0133333333097",
        },
        "loop_events": 2468,
        "sched_rounds": 37,
    },
    "coordl": {
        "end_time_s": "1980.0",
        "jct_s": {
            "a": "692.3044311039246",
            "b": "634.6666666666711",
            "c": "930.4533333333286",
            "d": "844.1450076805011",
            "e": "770.4533333333245",
            "f": "412.74666666667395",
        },
        "loop_events": 2464,
        "sched_rounds": 33,
    },
    "preempt": {
        "end_time_s": "2280.0",
        "jct_s": {
            "a": "1088.27733333333",
            "b": "676.0000000000019",
            "c": "1001.20953694581",
            "d": "1086.9866666666883",
            "e": "1021.3249438202413",
            "f": "712.746666666641",
        },
        "loop_events": 2561,
        "sched_rounds": 38,
    },
    "silod": {
        "end_time_s": "2220.0",
        "jct_s": {
            "a": "643.3920000000052",
            "b": "672.8000000000002",
            "c": "941.6257471264407",
            "d": "960.3306666666824",
            "e": "1017.728000000003",
            "f": "652.7466666666369",
        },
        "loop_events": 2465,
        "sched_rounds": 37,
    },
    "silod-prefetch": {
        "end_time_s": "2280.0",
        "jct_s": {
            "a": "643.3920000000052",
            "b": "672.8000000000002",
            "c": "910.299481116577",
            "d": "960.3306666666824",
            "e": "1032.064000000001",
            "f": "692.1599999999776",
        },
        "loop_events": 2465,
        "sched_rounds": 38,
    },
    "silod-cache-loss": {
        "end_time_s": "2400.0",
        "jct_s": {
            "a": "643.3920000000052",
            "b": "672.8000000000002",
            "c": "997.9268764244514",
            "d": "1055.7455238095388",
            "e": "1142.9120000000014",
            "f": "832.7466666666592",
        },
        "loop_events": 2465,
        "sched_rounds": 40,
    },
    "stall": {
        "end_time_s": "3300.0",
        "jct_s": {
            "a": "615.4666666666703",
            "b": "2733.297836664784",
            "c": "2054.7911111111357",
            "d": "2189.8666666666422",
            "e": "2330.8800000000642",
            "f": "524.5866666666745",
        },
        "loop_events": 2496,
        "sched_rounds": 55,
    },
}

EXPECTED_EVENTS = {
    "alluxio": "127a1195344188f6",
    "coordl": "51983eecc907dab8",
    "preempt": "55e824023ee838c3",
    "silod": "710002a03af57c92",
    "silod-cache-loss": "5351f5702f502a47",
    "silod-prefetch": "3ed9c16d79a694c4",
    "stall": "a431812808221dce",
}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(CELLS))
def test_anchor(name, traced):
    anchors, tracer = run_cell(name, traced)
    assert anchors == EXPECTED[name]
    if traced:
        assert event_digest(tracer) == EXPECTED_EVENTS[name]


def test_preempt_cell_rolls_back_mid_epoch():
    _anchors, tracer = run_cell("preempt", traced=True)
    preempts = [e for e in tracer.events if e.etype == "job_preempt"]
    assert [e.job_id for e in preempts] == ["a"]
    assert preempts[0].fields["rollback_mb"] > 0.0


def test_stall_cell_takes_the_stall_branch(monkeypatch):
    """A stalled call parks the compute clock exactly on ``t_end``."""
    stalls = []
    original = MinibatchEmulator._run_job_pipeline

    def spy(self, rt, t_end, step_time, fetch_time, local_time):
        original(self, rt, t_end, step_time, fetch_time, local_time)
        if fetch_time == float("inf") and rt.comp_free_t == t_end:
            stalls.append(rt.job.job_id)

    monkeypatch.setattr(MinibatchEmulator, "_run_job_pipeline", spy)
    run_cell("stall", traced=False)
    assert stalls
