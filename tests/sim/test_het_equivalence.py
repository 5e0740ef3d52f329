"""Heterogeneous placement: fluid vs minibatch, and collapse to Gavel.

Two guarantees pin the heterogeneity layer:

* **Cross-simulator equivalence** — on a mixed-generation fleet both
  het policies drive the fluid simulator and the minibatch emulator
  through the same anchor-event sequence (``localize_divergence``
  finds nothing) with small JCT error.
* **Collapse** — on a single-generation fleet ``het-max-min`` is
  *bit-identical* to ``gavel``: the speedup factor is exactly ``1.0``,
  so every grant, score, and finish time matches to the last bit. Only
  the policy's name (and the het-only ``f_star_gen_mbps`` provenance
  field) may differ.
"""

import pytest

from repro import units
from repro.analysis.fidelity import compare_simulators, localize_divergence
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.obs import Tracer
from repro.sim.runner import run_experiment
from repro.workloads.models import make_job

pytestmark = pytest.mark.perf

HET_POLICIES = ("het-max-min", "het-max-throughput")

#: Event fields that legitimately differ between a het policy and its
#: homogeneous twin (or carry wall-clock time).
_POLICY_BEARING = {"policy", "f_star_gen_mbps", "latency_ms"}


def mixed_cluster() -> Cluster:
    return Cluster.build_mixed(
        [("V100", 2), ("A100", 1)],
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=units.gbps(1.6),
    )


def homogeneous_cluster() -> Cluster:
    return Cluster.build(
        num_servers=3,
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=units.gbps(1.6),
    )


def small_jobs():
    return [
        make_job(
            f"job-{i}",
            "resnet50",
            Dataset(name=f"d-{i % 2}", size_mb=units.gb(8 + 4 * (i % 2))),
            num_gpus=1 + (i % 3),
            num_epochs=2,
            submit_time_s=120.0 * i,
        )
        for i in range(5)
    ]


@pytest.mark.parametrize("policy", HET_POLICIES)
def test_het_policies_cross_simulator_equivalence(policy):
    """Fluid and minibatch agree on anchors for both het objectives."""
    report = compare_simulators(
        mixed_cluster(),
        policy,
        "silod",
        small_jobs(),
        localize=True,
    )
    assert report.divergence is None
    assert report.jct_error == pytest.approx(0.0, abs=0.25)


def _traced_run(policy, simulator="fluid"):
    tracer = Tracer()
    result = run_experiment(
        homogeneous_cluster(),
        policy,
        "silod",
        small_jobs(),
        simulator=simulator,
        tracer=tracer,
    )
    return result, tracer.events


def _normalised(events):
    """Event tuples with policy-identity and wall-clock fields dropped."""
    return [
        (
            e.ts_s.hex(),
            e.etype,
            e.job_id,
            {
                k: (v.hex() if isinstance(v, float) else v)
                for k, v in e.fields.items()
                if k not in _POLICY_BEARING
            },
        )
        for e in events
    ]


@pytest.mark.parametrize("simulator", ["fluid", "minibatch"])
def test_het_max_min_collapses_to_gavel_on_homogeneous(simulator):
    """Single-generation fleet: het-max-min == gavel, bit for bit."""
    het_result, het_events = _traced_run("het-max-min", simulator)
    gavel_result, gavel_events = _traced_run("gavel", simulator)
    assert _normalised(het_events) == _normalised(gavel_events)
    assert [
        (r.job_id, r.jct_s.hex())
        for r in het_result.finished_records()
    ] == [
        (r.job_id, r.jct_s.hex())
        for r in gavel_result.finished_records()
    ]
    # The het run still narrates which generation served each job.
    decision_gens = {
        e.fields.get("generation")
        for e in het_events
        if e.etype == "decision_job"
    }
    assert decision_gens == {"V100"}


@pytest.mark.parametrize("policy", HET_POLICIES)
def test_het_runs_are_deterministic(policy):
    """Two identical mixed-fleet runs produce identical event logs."""

    def run_once():
        tracer = Tracer()
        run_experiment(
            mixed_cluster(),
            policy,
            "silod",
            small_jobs(),
            tracer=tracer,
        )
        return _normalised(tracer.events)

    first = run_once()
    assert first == run_once()
    assert localize_divergence([], []) is None  # sanity: helper importable
