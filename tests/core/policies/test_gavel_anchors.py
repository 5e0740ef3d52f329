"""Bit-exact anchors of Gavel's joint (GPU, cache, IO) solver.

The joint solver's rounds are optimised by hand: a pure-Python solver
that reproduces numpy's summation and ranking, float operation for
float operation. A change that perturbs one summation order, one tie
in the cache ranking or one bisection step would move the simulated
finish times, so these cells pin every job's JCT as ``float.hex``:

* ``gavel`` x SiloD on a homogeneous fleet, with shared datasets and a
  one-GPU job whose ``f*`` cap binds, so progressive filling freezes it
  and bisects again for the rest (a test asserts that it does);
* ``finish-time-fairness``, the Gavel objective with a different
  normaliser;
* ``het-max-min`` on a K80/P100/V100 fleet under ``generate_churn``;
* ``gavel`` with rounds of more than 40 concurrent jobs, pinned while
  rounds that large ran a numpy solver.
"""

import pytest

from repro import units
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.faults.spec import generate_churn
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


def shared_jobs():
    """Shared and private datasets; job ``s`` needs one GPU only."""
    return [
        _job("a", "d-shared", 300.0, 220.0, 4, 2.0, 0.0),
        _job("b", "d-shared", 300.0, 180.0, 2, 1.5, 0.0),
        _job("c", "d-big", 500.0, 260.0, 4, 1.0, 300.0),
        _job("s", "d-small", 40.0, 25.0, 1, 6.0, 600.0),
        _job("e", "d-big", 500.0, 140.0, 2, 1.2, 1200.0),
        _job("f", "d-f", 200.0, 300.0, 4, 2.0, 1800.0),
        _job("g", "d-shared", 300.0, 120.0, 1, 1.0, 2400.0),
        _job("h", "d-h", 120.0, 90.0, 2, 3.0, 3000.0),
    ]


def wide_jobs():
    """Forty-eight concurrent jobs over eight datasets."""
    return [
        _job(
            f"w{i:02d}",
            f"d-{i % 8}",
            60.0 + 20.0 * (i % 8),
            40.0 + 7.0 * (i % 11),
            1 + i % 4,
            1.0 + 0.25 * (i % 5),
            60.0 * (i % 6),
        )
        for i in range(48)
    ]


def _homogeneous():
    return Cluster.build(4, 4, units.gb(200.0), 600.0)


def _mixed():
    return Cluster.build_mixed(
        (("K80", 3), ("P100", 2), ("V100", 1)),
        gpus_per_server=4,
        cache_per_server_mb=units.gb(150.0),
        remote_io_mbps=500.0,
    )


#: name -> (policy, cluster factory, jobs factory, churn seed or None)
CELLS = {
    "gavel-shared": ("gavel", _homogeneous, shared_jobs, None),
    "finish-time-fairness": (
        "finish-time-fairness", _homogeneous, shared_jobs, None,
    ),
    "het-max-min-churn": ("het-max-min", _mixed, shared_jobs, 11),
    "gavel-wide": ("gavel", _homogeneous, wide_jobs, None),
}


def run_cell(name, spy=None):
    policy, make_cluster, make_jobs, churn_seed = CELLS[name]
    cluster = make_cluster()
    faults = None
    if churn_seed is not None:
        faults = generate_churn(
            seed=churn_seed,
            duration_s=units.hours(12.0),
            num_servers=len(cluster.servers),
            total_cache_mb=cluster.total_cache_mb,
            crash_interval_s=units.hours(2.0),
            bandwidth_flap_interval_s=units.hours(3.0),
            cache_loss_interval_s=units.hours(4.0),
        )
    scheduler, cache_system = make_system(policy, "silod")
    if spy is not None:
        spy(scheduler.policy)
    sim = FluidSimulator(
        cluster,
        scheduler,
        cache_system,
        make_jobs(),
        reschedule_interval_s=600.0,
        faults=faults,
    )
    result = sim.run()
    return {
        "end_time_s": result.end_time_s.hex(),
        "jct_s": {r.job_id: r.jct_s.hex() for r in result.finished_records()},
        "sched_rounds": sim.sched_rounds,
    }


#: Recorded while every round ran a numpy solver.
EXPECTED = {
    "finish-time-fairness": {
        "end_time_s": "0x1.57906cfa0e15bp+13",
        "jct_s": {
            "a": "0x1.a6f4e71ad9301p+11",
            "b": "0x1.89dda14964d30p+11",
            "c": "0x1.400503bf8c356p+11",
            "e": "0x1.30dc5a7680c61p+12",
            "f": "0x1.a6b972b97c8b4p+10",
            "g": "0x1.509a5915cb37ep+11",
            "h": "0x1.0000000000001p+12",
            "s": "0x1.44d06cfa0e15bp+13",
        },
        "sched_rounds": 25,
    },
    "gavel-shared": {
        "end_time_s": "0x1.4bfe21954b17ep+13",
        "jct_s": {
            "a": "0x1.b4355d410443fp+11",
            "b": "0x1.60d9660cb8fb5p+11",
            "c": "0x1.7758c68a81e9bp+11",
            "e": "0x1.1e611d260c587p+12",
            "f": "0x1.bd5050ebc5130p+10",
            "g": "0x1.4000000000002p+11",
            "h": "0x1.0000000000000p+12",
            "s": "0x1.393e21954b17ep+13",
        },
        "sched_rounds": 25,
    },
    "gavel-wide": {
        "end_time_s": "0x1.9683c99e98d87p+14",
        "jct_s": {
            "w00": "0x1.e9a01bf11c1cbp+11",
            "w01": "0x1.4c98f03506e98p+13",
            "w02": "0x1.0cadef22c6b4dp+14",
            "w03": "0x1.4e849453970d8p+14",
            "w04": "0x1.c1263b107d2d8p+13",
            "w05": "0x1.4fca51a007cf4p+13",
            "w06": "0x1.0880bafdc428fp+14",
            "w07": "0x1.4db00e3a8f4a8p+14",
            "w08": "0x1.4f5a4d9045893p+12",
            "w09": "0x1.0d198ca3021ccp+13",
            "w10": "0x1.c9bf21b120938p+12",
            "w11": "0x1.545c389c1a4a5p+14",
            "w12": "0x1.6c854305811d5p+13",
            "w13": "0x1.2c37dac3cd5eep+14",
            "w14": "0x1.6514da9725e03p+14",
            "w15": "0x1.3c43b5f8ec261p+14",
            "w16": "0x1.f6f53e4ef0108p+11",
            "w17": "0x1.e753b53ff457ep+12",
            "w18": "0x1.a5813868eea66p+13",
            "w19": "0x1.2767430fbc1c3p+14",
            "w20": "0x1.08ccb82cdf0bcp+13",
            "w21": "0x1.68f0c1710c636p+13",
            "w22": "0x1.712921f249bd0p+14",
            "w23": "0x1.91d3c99e98d87p+14",
            "w24": "0x1.75f779bfbd76ap+12",
            "w25": "0x1.b16540ba517eep+12",
            "w26": "0x1.99a5cf91cdd48p+13",
            "w27": "0x1.214e65a56edd4p+14",
            "w28": "0x1.9b989ece09c1cp+13",
            "w29": "0x1.f31438834f39bp+13",
            "w30": "0x1.965fd77ee923ap+13",
            "w31": "0x1.235360e310b7ep+14",
            "w32": "0x1.2129ab3e48af4p+12",
            "w33": "0x1.e51a5d3881ed8p+13",
            "w34": "0x1.462dbf97f8b15p+14",
            "w35": "0x1.14f5ff92800dep+14",
            "w36": "0x1.3845c255b6b92p+13",
            "w37": "0x1.e71480421680cp+13",
            "w38": "0x1.45eb07ebef977p+14",
            "w39": "0x1.6a6011d303258p+14",
            "w40": "0x1.94a3d600b0277p+11",
            "w41": "0x1.69279cc6f8693p+12",
            "w42": "0x1.4a5fd8bb53f6fp+13",
            "w43": "0x1.ff2ff521d4a40p+13",
            "w44": "0x1.e536f58290b23p+13",
            "w45": "0x1.dc127c8fc1b03p+13",
            "w46": "0x1.43c1a4cbcfddfp+14",
            "w47": "0x1.695dec1611d61p+14",
        },
        "sched_rounds": 75,
    },
    "het-max-min-churn": {
        "end_time_s": "0x1.9c4953c4af207p+12",
        "jct_s": {
            "a": "0x1.4596ed499e876p+12",
            "b": "0x1.10eb033016866p+12",
            "c": "0x1.6cffc8be8aa32p+12",
            "e": "0x1.514953c4af207p+12",
            "f": "0x1.9c2f2f5c0f8ccp+11",
            "g": "0x1.50933b349739ap+11",
            "h": "0x1.20f8e491d5ea4p+11",
            "s": "0x1.1481091f89f9bp+12",
        },
        "sched_rounds": 22,
    },
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_anchor(name):
    assert run_cell(name) == EXPECTED[name]


def _round_recorder(rounds):
    """Wrap a policy's ``schedule`` to keep each round's jobs and scores."""

    def spy(policy):
        original = policy.schedule

        def schedule(jobs, total, ctx):
            allocation = original(jobs, total, ctx)
            rounds.append((list(jobs), dict(ctx.job_scores), ctx.estimator))
            return allocation

        policy.schedule = schedule

    return spy


def test_gavel_shared_cell_freezes_a_job():
    """Some round caps a job at exactly its ``f*`` while another job
    stays below its own cap, so progressive filling bisected again with
    a frozen job."""
    rounds = []
    run_cell("gavel-shared", spy=_round_recorder(rounds))
    frozen_rounds = 0
    for jobs, scores, estimator in rounds:
        f_star = {j.job_id: estimator.compute_bound(j, j.num_gpus) for j in jobs}
        capped = [j for j in f_star if scores[j] == f_star[j]]
        below = [j for j in f_star if scores[j] < f_star[j] * (1.0 - 1e-6)]
        if capped and below:
            frozen_rounds += 1
    assert frozen_rounds > 0


def test_gavel_wide_cell_has_large_rounds():
    """The wide cell reaches rounds of more than 40 jobs.

    Its anchor was pinned while rounds above 40 jobs ran a numpy
    solver, so it is the cell that shows the pure-Python solver still
    reproduces those rounds to the bit."""
    rounds = []
    run_cell("gavel-wide", spy=_round_recorder(rounds))
    assert max(len(jobs) for jobs, _, _ in rounds) > 40
