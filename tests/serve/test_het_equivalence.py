"""Online/batch equivalence on a mixed-generation fleet.

The heterogeneous placement path (generation pools, per-generation f*,
het water-filling) must not disturb the service's central guarantee:
an online run fed the same jobs is anchor-identical to the batch run
on the same mixed cluster, for both het objectives.
"""

import pytest

from repro import units
from repro.analysis.fidelity import localize_divergence
from repro.cluster.hardware import Cluster
from repro.obs import Tracer
from repro.sim.runner import run_experiment
from repro.workloads.trace import TraceConfig, generate_trace
from repro.workloads.trace_io import job_to_dict

from .conftest import make_engine

pytestmark = pytest.mark.serve

# Dense, multi-GPU jobs so the V100 pool must absorb overflow from the
# A100 pool — both generations serve jobs and show up in provenance.
TRACE = TraceConfig(
    num_jobs=12,
    seed=11,
    mean_interarrival_s=50.0,
    duration_median_s=900.0,
    gpu_mix=((2, 0.5), (4, 0.5)),
)


def mixed_cluster() -> Cluster:
    return Cluster.build_mixed(
        [("V100", 1), ("A100", 1)],
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=units.gbps(1.6),
    )


def _batch_events(policy, simulator):
    tracer = Tracer()
    run_experiment(
        mixed_cluster(),
        policy,
        "silod",
        generate_trace(TRACE),
        simulator=simulator,
        tracer=tracer,
    )
    return tracer.events


def _online_engine(policy, simulator):
    engine = make_engine(
        policy=policy, simulator=simulator, cluster=mixed_cluster()
    )
    engine.start()
    for job in sorted(
        generate_trace(TRACE),
        key=lambda j: (j.submit_time_s, j.job_id),
        reverse=True,
    ):
        engine.submit(job_to_dict(job))
    engine.drain()
    return engine


@pytest.mark.parametrize("policy", ["het-max-min", "het-max-throughput"])
@pytest.mark.parametrize("simulator", ["fluid", "minibatch"])
def test_het_online_run_is_anchor_identical_to_batch(policy, simulator):
    batch = _batch_events(policy, simulator)
    engine = _online_engine(policy, simulator)
    online = engine.tracer.events
    assert localize_divergence(batch, online) is None
    assert localize_divergence(online, batch) is None


def test_het_provenance_generations_match_batch():
    """decision_job generation/f* provenance is identical either way."""

    def provenance(events):
        return [
            (
                round(e.ts_s, 9),
                e.job_id,
                e.fields.get("generation"),
                e.fields.get("f_star_gen_mbps"),
            )
            for e in events
            if e.etype == "decision_job"
        ]

    batch = provenance(_batch_events("het-max-min", "fluid"))
    online = provenance(
        _online_engine("het-max-min", "fluid").tracer.events
    )
    assert batch == online
    assert len(batch) > 0
    generations = {gen for _, _, gen, _ in batch}
    assert generations <= {"V100", "A100"}
    assert len(generations) == 2  # both pools actually serve jobs


def test_het_placement_service_describes_pools():
    """status()'s services block narrates the heterogeneous placement state."""
    engine = _online_engine("het-max-min", "fluid")
    placement = engine.status()["services"]["placement"]
    assert placement["heterogeneity_aware"] is True
    assert placement["gpu_pools"] == {"V100": 4, "A100": 4}
    assert placement["default_generation"] in {"V100", "A100"}

    homogeneous = make_engine(policy="fifo")
    homogeneous.start()
    homogeneous.drain()
    plain = homogeneous.status()["services"]["placement"]
    assert plain["heterogeneity_aware"] is False


def test_status_names_the_live_estimator_on_a_mixed_fleet():
    """A mixed fleet installs the het estimator; status reports it."""
    engine = _online_engine("het-max-min", "fluid")
    assert engine.status()["services"]["estimator"] == {
        "kind": "HetSiloDPerfEstimator"
    }

    homogeneous = make_engine(policy="fifo")
    homogeneous.start()
    homogeneous.drain()
    assert homogeneous.status()["services"]["estimator"] == {
        "kind": "SiloDPerfEstimator"
    }
