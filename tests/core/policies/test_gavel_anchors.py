"""Bit-exact anchors of Gavel's joint (GPU, cache, IO) solver.

Each step of the joint solver's filling loop takes the largest common
ratio in closed form, confirmed float by float against its feasibility
predicate, whose totals are ``math.fsum`` sums. A change that perturbs
one total, one tie in the cache ranking or the confirmation would move
the simulated finish times, so these cells pin every job's JCT as
``float.hex``:

* ``gavel`` x SiloD on a homogeneous fleet, with shared datasets and a
  one-GPU job whose ``f*`` cap binds, so progressive filling freezes it
  and solves again for the rest (a test asserts that it does);
* ``finish-time-fairness``, the Gavel objective with a different
  normaliser;
* ``het-max-min`` on a K80/P100/V100 fleet under ``generate_churn``;
* ``gavel`` with rounds of more than 40 concurrent jobs.
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


#: Recorded with the closed-form common ratio.
EXPECTED = {
    "finish-time-fairness": {
        "end_time_s": "0x1.57906cfa0def4p+13",
        "jct_s": {
            "a": "0x1.a6f4e71ad884fp+11",
            "b": "0x1.89dda1496427fp+11",
            "c": "0x1.400503bf8b8a5p+11",
            "e": "0x1.30dc5a768079ep+12",
            "f": "0x1.a6b972b97b926p+10",
            "g": "0x1.509a5915cadd4p+11",
            "h": "0x1.0000000000000p+12",
            "s": "0x1.44d06cfa0def4p+13",
        },
        "sched_rounds": 25,
    },
    "gavel-shared": {
        "end_time_s": "0x1.4bfe21954afbcp+13",
        "jct_s": {
            "a": "0x1.b4355d4103741p+11",
            "b": "0x1.60d9660cb855cp+11",
            "c": "0x1.7758c68a80f95p+11",
            "e": "0x1.1e611d260c322p+12",
            "f": "0x1.bd5050ebc435ep+10",
            "g": "0x1.4000000000000p+11",
            "h": "0x1.0000000000000p+12",
            "s": "0x1.393e21954afbcp+13",
        },
        "sched_rounds": 25,
    },
    "gavel-wide": {
        "end_time_s": "0x1.9683c99e974eep+14",
        "jct_s": {
            "w00": "0x1.e9a01bf11a6f1p+11",
            "w01": "0x1.4c98f0350569cp+13",
            "w02": "0x1.0cadef22c592bp+14",
            "w03": "0x1.4e849453958d7p+14",
            "w04": "0x1.c1263b107b5dep+13",
            "w05": "0x1.4fca51a0064b0p+13",
            "w06": "0x1.0880bafdc3112p+14",
            "w07": "0x1.4db00e3a8dcd7p+14",
            "w08": "0x1.4f5a4d9044226p+12",
            "w09": "0x1.0d198ca300bc3p+13",
            "w10": "0x1.c9bf21b11e33fp+12",
            "w11": "0x1.545c389c18c5ap+14",
            "w12": "0x1.6c8543057f80dp+13",
            "w13": "0x1.2c37dac3cc10fp+14",
            "w14": "0x1.6514da97245b3p+14",
            "w15": "0x1.3c43b5f8eab8bp+14",
            "w16": "0x1.f6f53e4eee120p+11",
            "w17": "0x1.e753b53ff1d87p+12",
            "w18": "0x1.a5813868ecd64p+13",
            "w19": "0x1.2767430fbad1dp+14",
            "w20": "0x1.08ccb82cddb2ap+13",
            "w21": "0x1.68f0c1710ac42p+13",
            "w22": "0x1.712921f248383p+14",
            "w23": "0x1.91d3c99e974eep+14",
            "w24": "0x1.75f779bfbbc37p+12",
            "w25": "0x1.b16540ba4f674p+12",
            "w26": "0x1.99a5cf91cc091p+13",
            "w27": "0x1.214e65a56d96bp+14",
            "w28": "0x1.9b989ece07f40p+13",
            "w29": "0x1.f31438834d29fp+13",
            "w30": "0x1.965fd77ee75b6p+13",
            "w31": "0x1.235360e30f709p+14",
            "w32": "0x1.2129ab3e476efp+12",
            "w33": "0x1.e51a5d3880086p+13",
            "w34": "0x1.462dbf97f7397p+14",
            "w35": "0x1.14f5ff927ed80p+14",
            "w36": "0x1.3845c255b546ap+13",
            "w37": "0x1.e7148042149abp+13",
            "w38": "0x1.45eb07ebee1f8p+14",
            "w39": "0x1.6a6011d3019bcp+14",
            "w40": "0x1.94a3d600af0d0p+11",
            "w41": "0x1.69279cc6f6b23p+12",
            "w42": "0x1.4a5fd8bb527b6p+13",
            "w43": "0x1.ff2ff521d28ecp+13",
            "w44": "0x1.e536f5828ecd9p+13",
            "w45": "0x1.dc127c8fbfd32p+13",
            "w46": "0x1.43c1a4cbce668p+14",
            "w47": "0x1.695dec16104c8p+14",
        },
        "sched_rounds": 75,
    },
    "het-max-min-churn": {
        "end_time_s": "0x1.9c37f2c316eefp+12",
        "jct_s": {
            "a": "0x1.4596ed499e4acp+12",
            "b": "0x1.10eb03301654bp+12",
            "c": "0x1.6d6f1ec165c94p+12",
            "e": "0x1.5137f2c316eefp+12",
            "f": "0x1.9c2f2f5c0f206p+11",
            "g": "0x1.50933b34969c0p+11",
            "h": "0x1.20f8e491d5a6cp+11",
            "s": "0x1.1481091f89cb7p+12",
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
    stays below its own cap, so progressive filling solved again with
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
    """The wide cell reaches rounds of more than 40 jobs, the largest
    rounds the four cells pin."""
    rounds = []
    run_cell("gavel-wide", spy=_round_recorder(rounds))
    assert max(len(jobs) for jobs, _, _ in rounds) > 40
