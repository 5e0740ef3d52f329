"""Decision provenance: emission in the simulators, chain, rendering."""

import dataclasses

import pytest

from repro import units
from repro.cluster.hardware import Cluster
from repro.obs import Tracer
from repro.obs import events as ev
from repro.core.perf_model import achieved_rate
from repro.obs.prov import decision_chain, render_explain
from repro.sim.runner import run_experiment
from repro.workloads.trace import TraceConfig, generate_trace

pytestmark = pytest.mark.obs


def _traced_run(
    cache: str = "silod",
    num_jobs: int = 6,
    duration_median_s: float = 900.0,
    **sim_kwargs,
):
    cluster = Cluster.build(2, 4, units.gb(25), units.gbps(1.6))
    jobs = generate_trace(
        TraceConfig(
            num_jobs=num_jobs,
            seed=11,
            mean_interarrival_s=300.0,
            duration_median_s=duration_median_s,
        )
    )
    tracer = Tracer()
    run_experiment(cluster, "fifo", cache, jobs, tracer=tracer, **sim_kwargs)
    return jobs, tracer.events


@pytest.mark.parametrize("simulator", ["fluid", "minibatch"])
def test_every_round_emits_epoch_then_member_jobs(simulator):
    jobs, events = _traced_run(simulator=simulator)
    epochs = [e for e in events if e.etype == ev.DECISION_EPOCH]
    decisions = [e for e in events if e.etype == ev.DECISION_JOB]
    assert epochs and decisions
    # Round indices count the simulator's storage rounds: 1..N, in order.
    rounds = [e.fields["round"] for e in epochs]
    assert rounds == list(range(1, len(rounds) + 1))
    by_round = {}
    for d in decisions:
        by_round.setdefault(d.fields["round"], []).append(d)
    for epoch in epochs:
        members = by_round.get(epoch.fields["round"], [])
        assert len(members) == epoch.fields["num_running"]
        # Per-job records are sorted by job_id within the round.
        ids = [d.job_id for d in members]
        assert ids == sorted(ids)
        for d in members:
            assert d.ts_s == epoch.ts_s


def test_decision_job_fields_reconstruct_eq4():
    _, events = _traced_run()
    decisions = [e for e in events if e.etype == ev.DECISION_JOB]
    for d in decisions:
        f = d.fields
        est = achieved_rate(f["f_star_mbps"], f["hit_ratio"], f["io_mbps"])
        assert f["est_mbps"] == pytest.approx(est, abs=1e-9)
        assert f["io_bound"] == (f["est_mbps"] < f["f_star_mbps"] - 1e-9)
        assert 0.0 <= f["hit_ratio"] <= 1.0


def test_epoch_triggers_get_their_own_rounds():
    # Long jobs and a slow reschedule cadence so epoch boundaries land
    # between rounds and trigger storage-only decisions of their own.
    _, events = _traced_run(
        num_jobs=10,
        duration_median_s=3000.0,
        reschedule_interval_s=1800.0,
    )
    triggers = {
        e.fields["round"]: e.fields["trigger"]
        for e in events
        if e.etype == ev.DECISION_EPOCH
    }
    assert "reschedule" in triggers.values()
    assert "epoch" in triggers.values()
    # Each epoch-triggered decision has a round index of its own (not
    # reusing the enclosing reschedule round's).
    assert len(triggers) == len(set(triggers))


def test_decision_chain_orders_rounds_and_carries_triggers():
    jobs, events = _traced_run()
    chain = decision_chain(events, jobs[0].job_id)
    assert chain
    rounds = [rec.round for rec in chain]
    assert rounds == sorted(rounds)
    assert all(rec.trigger in ("reschedule", "epoch") for rec in chain)


def test_render_explain_output():
    jobs, events = _traced_run()
    job = jobs[0]
    text = render_explain(events, job.job_id)
    assert text.startswith(f"job {job.job_id}: ")
    assert "Eq.5 cache efficiency" in text
    assert "Eq.4: est = min(f*" in text
    assert "round " in text and "[reschedule]" in text
    chain = decision_chain(events, job.job_id)
    assert text.count("round ") == len(chain)


def test_render_explain_unknown_job_says_so():
    _, events = _traced_run(num_jobs=3)
    text = render_explain(events, "nope")
    assert "no decision records for 'nope'" in text


def test_render_explain_narrates_cache_share_moves():
    jobs, events = _traced_run()
    narrated = False
    for job in jobs:
        text = render_explain(events, job.job_id)
        if "cache share " in text:
            narrated = True
            assert ("rose" in text) or ("fell" in text)
    assert narrated, "no job's cache share ever moved across rounds"


def test_deadline_appears_in_explain_header():
    cluster = Cluster.build(2, 4, units.gb(25), units.gbps(1.6))
    jobs = generate_trace(
        TraceConfig(num_jobs=4, seed=3, mean_interarrival_s=200.0)
    )
    jobs = [dataclasses.replace(jobs[0], deadline_s=3600.0)] + list(
        jobs[1:]
    )
    tracer = Tracer()
    run_experiment(cluster, "fifo", "silod", jobs, tracer=tracer)
    text = render_explain(tracer.events, jobs[0].job_id)
    assert "deadline 3600s" in text


def test_baseline_caches_also_emit_provenance():
    _, events = _traced_run(cache="alluxio")
    assert any(e.etype == ev.DECISION_JOB for e in events)
