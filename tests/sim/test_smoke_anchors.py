"""Bit-exact anchors of two small end-to-end scenarios.

* ``fluid_tiny`` — ``fifo x silod`` in the fluid simulator: 40 seeded
  jobs at load 1.5 on 16 GPUs, at the paper's per-GPU ratios (§7.2:
  368 GB of local cache per GPU, 8 Gbps of egress per 100 GPUs). The
  anchors are the simulated end time, the finished-job count and the
  mean JCT.
* ``het_tiny`` — 16 seeded jobs on a ``V100:2,A100:1`` fleet, replayed
  under ``fifo``, ``het-max-min`` and ``het-max-throughput``. The
  anchors are each policy's aggregate throughput (completed work over
  the makespan), mean JCT and finished-job count, plus the dominance
  ordering ``het-max-throughput >= het-max-min >= fifo`` on aggregate
  throughput.

Floats are compared as ``float.hex``, with ``==``, with the cache state
in both residency stores against the same expected values.
"""

import pytest

from repro import units
from repro.cluster.hardware import Cluster
from repro.sim.runner import run_experiment
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)

HET_POLICIES = ("fifo", "het-max-min", "het-max-throughput")

BOTH_STORES = pytest.mark.parametrize(
    "residency_store", ["vectorized", "fallback"], indirect=True
)


def _trace(num_jobs, num_gpus, duration_median_s, **overrides):
    cfg = TraceConfig(
        num_jobs=num_jobs,
        seed=42,
        duration_median_s=duration_median_s,
        **overrides,
    )
    cfg.mean_interarrival_s = arrival_rate_for_load(cfg, num_gpus, load=1.5)
    return generate_trace(cfg)


@BOTH_STORES
def test_fluid_tiny(residency_store):
    cluster = Cluster.build(
        num_servers=4,
        gpus_per_server=4,
        cache_per_server_mb=4 * units.gb(368.0),
        remote_io_mbps=units.gbps(8.0 * 16 / 100.0),
    )
    result = run_experiment(
        cluster,
        "fifo",
        "silod",
        _trace(40, 16, 3600.0, duration_sigma=1.2),
        simulator="fluid",
        reschedule_interval_s=1800.0,
        sample_interval_s=3600.0,
    )
    assert result.end_time_s.hex() == "0x1.5c81066feaa2fp+16"
    assert len(result.finished_records()) == 40
    assert result.average_jct_minutes().hex() == "0x1.c4a054d0bc9d2p+8"


@BOTH_STORES
def test_het_tiny(residency_store):
    mix = (("V100", 2), ("A100", 1))
    jobs = _trace(16, 12, 1800.0)
    work_mb = {job.job_id: job.total_work_mb for job in jobs}
    agg, jct, finished = {}, {}, {}
    for policy in HET_POLICIES:
        cluster = Cluster.build_mixed(
            mix,
            gpus_per_server=4,
            cache_per_server_mb=4 * units.gb(368.0),
            remote_io_mbps=units.gbps(8.0 * 12 / 100.0),
        )
        result = run_experiment(
            cluster,
            policy,
            "silod",
            jobs,
            simulator="fluid",
            reschedule_interval_s=600.0,
        )
        done = sum(work_mb[r.job_id] for r in result.finished_records())
        agg[policy] = (done / result.makespan_s()).hex()
        jct[policy] = result.average_jct_minutes().hex()
        finished[policy] = len(result.finished_records())
    assert agg == {
        "fifo": "0x1.1902db2d5dd6fp+7",
        "het-max-min": "0x1.25063bb564c13p+7",
        "het-max-throughput": "0x1.2645c193c9a1dp+7",
    }
    assert jct == {
        "fifo": "0x1.87e3f68825cf7p+7",
        "het-max-min": "0x1.630fb98dcec15p+7",
        "het-max-throughput": "0x1.e625aae229bdep+7",
    }
    assert finished == dict.fromkeys(HET_POLICIES, 16)
    rates = [float.fromhex(agg[policy]) for policy in HET_POLICIES]
    assert rates == sorted(rates)
