"""Bit-exact anchors of the fluid simulator.

The fluid simulator's epoch-boundary work is optimised by hand: an
unchanged SiloD storage decision is handed back as the same object and
the simulator then skips the target replay and the rate recompute, and
the job table keeps its moving-row index between rate writes. A change
that perturbs one float operation, one reuse condition or one
invalidation would move the simulated finish times, so these cells pin
every job's JCT, the end time and the loop counters (floats as
``float.hex``):

* ``fifo x silod`` on private datasets with more demand than GPUs and
  a cache pool far smaller than the datasets;
* shared datasets, so several running jobs fill one key and the
  exponential multi-filler path runs;
* a fault schedule with a server loss, a data-manager crash and a
  bandwidth flap;
* an online run that submits and cancels jobs between steps.

Each cell has more than eight running jobs at its peak, so the numpy
paths run, and each runs under both numeric backends against the same
expected values.
"""

import pytest

from repro import units
from repro.backend import (
    BACKEND_FALLBACK,
    BACKEND_VECTORIZED,
    using_backend,
)
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.faults import FaultEvent
from repro.sim.fluid import FluidSimulator
from repro.sim.runner import make_system

GB = 1024.0


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


def private_jobs():
    """Twenty jobs, each on its own dataset."""
    return [
        _job(
            f"p{i:02d}",
            f"d-p{i:02d}",
            40.0 + 15.0 * (i % 7),
            60.0 + 11.0 * (i % 9),
            1 + i % 3,
            1.5 + 0.5 * (i % 4),
            120.0 * i,
        )
        for i in range(20)
    ]


def shared_jobs():
    """Eighteen jobs over three datasets, arriving in overlapping waves."""
    return [
        _job(
            f"s{i:02d}",
            f"d-s{i % 3}",
            (80.0, 120.0, 60.0)[i % 3],
            50.0 + 9.0 * (i % 5),
            1 + i % 2,
            1.0 + 0.5 * (i % 3),
            90.0 * i,
        )
        for i in range(18)
    ]


def _cluster():
    # 16 GPUs, 60 GB of cache, 1.2 Gbps of egress.
    return Cluster.build(4, 4, units.gb(15.0), 150.0)


#: name -> (jobs factory, simulator keyword arguments)
CELLS = {
    "fifo-private": (private_jobs, {}),
    "shared": (shared_jobs, {}),
    "faults": (
        private_jobs,
        {
            "server_loss_times_s": (900.0,),
            "data_manager_crash_times_s": (1500.0,),
            "faults": [
                FaultEvent(600.0, "bandwidth", magnitude=0.3),
                FaultEvent(2400.0, "bandwidth", magnitude=1.0),
            ],
        },
    ),
    "online": (shared_jobs, {}),
}

#: The online cell's script: (virtual time, action, job). Submitted
#: jobs join the shared datasets; one cancel hits a running job and one
#: a still-pending submission.
ONLINE_SCRIPT = (
    (200.0, "submit", _job("o1", "d-s0", 80.0, 70.0, 1, 1.0, 250.0)),
    (400.0, "submit", _job("o2", "d-s1", 120.0, 90.0, 2, 1.0, 5000.0)),
    (700.0, "cancel", "s02"),
    (900.0, "cancel", "o2"),
    (1300.0, "submit", _job("o3", "d-s2", 60.0, 40.0, 1, 2.0, 1300.0)),
)


def build_cell(name):
    make_jobs, kwargs = CELLS[name]
    scheduler, cache_system = make_system("fifo", "silod")
    return FluidSimulator(
        _cluster(),
        scheduler,
        cache_system,
        make_jobs(),
        reschedule_interval_s=600.0,
        **kwargs,
    )


def run_sim(sim, name):
    """Drive ``sim`` to completion (scripted for the online cell)."""
    if name != "online":
        return sim.run()
    sim.begin()
    for at_s, action, arg in ONLINE_SCRIPT:
        while sim.step(limit_s=at_s):
            pass
        if action == "submit":
            sim.submit_job(arg)
        else:
            sim.cancel_job(arg)
    while sim.step():
        pass
    return sim.finish()


def anchors(sim, result):
    return {
        "end_time_s": result.end_time_s.hex(),
        "jct_s": {r.job_id: r.jct_s.hex() for r in result.finished_records()},
        "sched_rounds": sim.sched_rounds,
        "decision_rounds": sim.decision_rounds,
        "loop_events": sim.loop_events,
    }


def run_cell(name):
    sim = build_cell(name)
    return anchors(sim, run_sim(sim, name))



#: Recorded before decision reuse and the moving-row index were added.
EXPECTED = {
    "faults": {
        "end_time_s": "0x1.927401366abd6p+14",
        "jct_s": {
            "p00": "0x1.8e16db6db6db7p+11",
            "p01": "0x1.752ab6d8bf259p+12",
            "p02": "0x1.3c532a5873d7cp+13",
            "p03": "0x1.cf8db16511271p+13",
            "p04": "0x1.2ce3fc566e33cp+13",
            "p05": "0x1.bc47040931351p+13",
            "p06": "0x1.2b3c869dbbbbdp+14",
            "p07": "0x1.02a8e6369041dp+12",
            "p08": "0x1.c2c8f4f9373bdp+12",
            "p09": "0x1.141c0fd7a6474p+13",
            "p10": "0x1.07d4be094b3ddp+14",
            "p11": "0x1.4c78229510794p+14",
            "p12": "0x1.03c865650a2a0p+14",
            "p13": "0x1.47433e211b289p+14",
            "p14": "0x1.644984df80751p+13",
            "p15": "0x1.e612dd7509cdap+13",
            "p16": "0x1.0aa4d3b1f8489p+14",
            "p17": "0x1.3868c6d943867p+14",
            "p18": "0x1.535ec364bf97ap+14",
            "p19": "0x1.6ed401366abd6p+14",
        },
        "sched_rounds": 72,
        "decision_rounds": 102,
        "loop_events": 139,
    },
    "fifo-private": {
        "end_time_s": "0x1.7f1db4a957b6cp+14",
        "jct_s": {
            "p00": "0x1.cb6db6db6db6dp+10",
            "p01": "0x1.23fb1fb1fb1fbp+12",
            "p02": "0x1.18c015b71b152p+13",
            "p03": "0x1.abfa9cc3b8646p+13",
            "p04": "0x1.044c30c30c30cp+13",
            "p05": "0x1.93dc8455b9eccp+13",
            "p06": "0x1.182a8c64710dcp+14",
            "p07": "0x1.7a31cc6d20838p+11",
            "p08": "0x1.7d38f4f9373bcp+12",
            "p09": "0x1.eff68d68d68d6p+12",
            "p10": "0x1.e6a9065434b1ap+13",
            "p11": "0x1.39dee06561e40p+14",
            "p12": "0x1.dec875f718736p+13",
            "p13": "0x1.34a5896e04b66p+14",
            "p14": "0x1.40b6703e27b27p+13",
            "p15": "0x1.bc10b2e251f52p+13",
            "p16": "0x1.edf0bab825c94p+13",
            "p17": "0x1.24d60fdd77eb7p+14",
            "p18": "0x1.40892d9a550b9p+14",
            "p19": "0x1.5b7db4a957b6cp+14",
        },
        "sched_rounds": 68,
        "decision_rounds": 98,
        "loop_events": 135,
    },
    "online": {
        "end_time_s": "0x1.c63c19c7ac569p+13",
        "jct_s": {
            "o1": "0x1.3771118a1951ep+12",
            "o3": "0x1.358518a40c3c7p+13",
            "s00": "0x1.36edf15f15f16p+12",
            "s01": "0x1.7b6e4dfce5b6fp+13",
            "s03": "0x1.3323276b35844p+12",
            "s04": "0x1.820e0f2b578eep+13",
            "s05": "0x1.10215d0b18d57p+13",
            "s06": "0x1.e6251f5631ceap+11",
            "s07": "0x1.732cc1da2e74cp+13",
            "s08": "0x1.01de58e82f095p+13",
            "s09": "0x1.75d2f7ea46cf3p+11",
            "s10": "0x1.62c0d29eaf809p+13",
            "s11": "0x1.052c63ba5a29ep+13",
            "s12": "0x1.6d400d97890dap+12",
            "s13": "0x1.88119fc6c2933p+13",
            "s14": "0x1.5d91523a4b38ap+13",
            "s15": "0x1.726bc6c3e9e31p+13",
            "s16": "0x1.993c19c7ac569p+13",
            "s17": "0x1.7f13d0ba4fa22p+13",
        },
        "sched_rounds": 54,
        "decision_rounds": 66,
        "loop_events": 89,
    },
    "shared": {
        "end_time_s": "0x1.c85daf913b92ap+13",
        "jct_s": {
            "s00": "0x1.2e0c9c09c09bfp+12",
            "s01": "0x1.707dcc19ea4e2p+13",
            "s02": "0x1.03e42be2be2bep+13",
            "s03": "0x1.32312b46456dfp+12",
            "s04": "0x1.76bb227e045b5p+13",
            "s05": "0x1.0c451a6e14a1ap+13",
            "s06": "0x1.16ae5b716c076p+12",
            "s07": "0x1.6545d272869d5p+13",
            "s08": "0x1.e8e238a3363d6p+12",
            "s09": "0x1.e98153d2a2ef6p+11",
            "s10": "0x1.566d08b87d3eap+13",
            "s11": "0x1.51473bfb3d614p+13",
            "s12": "0x1.ff32b9eafa51ap+12",
            "s13": "0x1.7d496d6fe853fp+13",
            "s14": "0x1.f34f0c156ec7cp+12",
            "s15": "0x1.62c3c5cdcf4b7p+13",
            "s16": "0x1.9b5daf913b92ap+13",
            "s17": "0x1.73b6e0022b569p+13",
        },
        "sched_rounds": 52,
        "decision_rounds": 64,
        "loop_events": 88,
    },
}


@pytest.mark.parametrize("backend", [BACKEND_VECTORIZED, BACKEND_FALLBACK])
@pytest.mark.parametrize("name", sorted(CELLS))
def test_anchor(name, backend):
    with using_backend(backend):
        assert run_cell(name) == EXPECTED[name]


def _count_decides(sim):
    """Wrap the cache system's ``decide``; returns the call counter."""
    calls = [0]
    decide = sim.cache_system.decide

    def counting(ctx):
        calls[0] += 1
        return decide(ctx)

    sim.cache_system.decide = counting
    return calls


def test_some_cell_reuses_a_decision():
    """At least one cell hands an unchanged decision back at an epoch
    boundary, so the anchors above cover the reuse path."""
    reused = {}
    for name in sorted(CELLS):
        sim = build_cell(name)
        calls = _count_decides(sim)
        run_sim(sim, name)
        reused[name] = sim.decision_rounds - calls[0]
    assert max(reused.values()) > 0, reused


def test_apply_targets_shrinks_a_sharer_between_decisions():
    """In the private cell, applying a decision's targets evicts from a
    key and so scales a running job's effective bytes after ``decide``
    read them — the case the reuse snapshot must survive (a snapshot
    taken after the eviction moves this cell's anchors)."""
    sim = build_cell("fifo-private")
    shrinks = [0]
    apply_targets = sim._apply_targets

    def spying():
        view = sim._epoch
        before = [sim._effective.get(j, 0.0) for j in view.job_ids]
        apply_targets()
        after = [sim._effective.get(j, 0.0) for j in view.job_ids]
        shrinks[0] += any(b > a for b, a in zip(before, after))

    sim._apply_targets = spying
    run_sim(sim, "fifo-private")
    assert shrinks[0] > 0
