"""Seeded inputs for the benchmark workloads.

Every workload is a list of *cells*: one cluster, one job trace and (for
the churn workload) one fault schedule each. A cell is generated from the
run's ``--seed`` and its index alone, so the same seed always yields the
same inputs and the simulator sees nothing but these generated objects.

Traces come from the repository's Philly-like generator
(:func:`repro.workloads.trace.generate_trace`) and are then *stratified*:
each job's duration, inter-arrival gap, GPU count and model/dataset
combination (one of Figure 6's eleven, with a private copy of the
dataset) become the lognormal / exponential / GPU-mix / uniform quantile
of the rank the generator drew for it. Arrival times are then rescaled
so the realised offered load equals the nominal one. The marginal
distributions are the generator's (durations capped at 24 h); only the
sampling noise of a few hundred heavy-tailed draws is removed. Without
it, one seed's single 40-hour job moved makespan by 40% and the
benchmark could not tell a regression from a new seed; and the
minibatch emulator's run time follows the summed size of the jobs'
datasets, which moved 1.7x from seed to seed with the combinations
drawn at random.
"""

from __future__ import annotations

import dataclasses
import math
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.cluster.hardware import Cluster
from repro.faults.spec import FaultSchedule, generate_churn
from repro.workloads import trace as trace_mod
from repro.workloads.models import FIGURE6_JOBS, make_job


@dataclasses.dataclass(frozen=True)
class BatchSpec:
    """One batch workload: simulator, policy, fleet and trace shape."""

    simulator: str
    policy: str
    cells: int
    num_jobs: int
    #: Homogeneous V100 fleet size (ignored when ``gpu_mix`` is set).
    num_gpus: int = 0
    #: Servers per generation for a mixed fleet, e.g. ``(("K80", 12),)``.
    gpu_mix: Tuple[Tuple[str, int], ...] = ()
    load: float = 1.5
    duration_median_s: float = 7200.0
    duration_sigma: float = 1.2
    duration_max_s: float = units.hours(24.0)
    #: Remote-IO egress per 100 GPUs (§7.2: 8 Gbps).
    egress_gbps_per_100_gpus: float = 8.0
    #: Fault-schedule horizon; 0 disables churn.
    churn_hours: float = 0.0
    #: Back-to-back ``next_event_time()`` peeks per read sample.
    peeks: int = 4
    sim_kwargs: Tuple[Tuple[str, float], ...] = ()

    @property
    def total_gpus(self) -> int:
        if self.gpu_mix:
            return 4 * sum(n for _, n in self.gpu_mix)
        return self.num_gpus


#: The batch workloads at benchmark size. ``README.md`` records why each
#: exists and which layers it loads.
BATCH_SPECS: Dict[str, BatchSpec] = {
    "fluid_fifo": BatchSpec(
        simulator="fluid",
        policy="fifo",
        cells=12,
        num_jobs=100,
        num_gpus=48,
        sim_kwargs=(
            ("reschedule_interval_s", 1800.0),
            ("sample_interval_s", 3600.0),
        ),
    ),
    "fluid_het_churn": BatchSpec(
        simulator="fluid",
        policy="het-max-min",
        cells=20,
        num_jobs=30,
        gpu_mix=(("K80", 12), ("P100", 8), ("V100", 5)),
        duration_median_s=3600.0,
        churn_hours=96.0,
        sim_kwargs=(
            ("reschedule_interval_s", 600.0),
            ("sample_interval_s", 3600.0),
        ),
    ),
    "minibatch_testbed": BatchSpec(
        simulator="minibatch",
        policy="fifo",
        cells=6,
        num_jobs=40,
        num_gpus=96,
        duration_median_s=1800.0,
        # A peek here takes under a microsecond: timed four at a time, a
        # sample was mostly timer overhead.
        peeks=64,
        sim_kwargs=(
            ("decision_interval_s", 300.0),
            ("sample_interval_s", 3600.0),
            ("item_size_mb", 128.0),
        ),
    ),
}

#: Per-cell job count of the tiny variants the benchmark's tests run.
TINY_JOBS = 12


def tiny(spec: BatchSpec) -> BatchSpec:
    """The same workload shrunk to seconds (tests only)."""
    return dataclasses.replace(spec, cells=1, num_jobs=TINY_JOBS)


def cell_seed(seed: int, cell: int) -> int:
    """Independent, reproducible generator seed of one cell."""
    return seed * 1000 + cell


def _by_rank(keys: Sequence, quantile: Callable[[float], float]) -> List:
    """``quantile((rank + 0.5) / n)`` for each element's rank in ``keys``
    (ties broken by position)."""
    n = len(keys)
    out = [None] * n
    order = sorted(range(n), key=lambda i: (keys[i], i))
    for rank, idx in enumerate(order):
        out[idx] = quantile((rank + 0.5) / n)
    return out


def _discrete_quantile(mix: Sequence[Tuple[int, float]], q: float) -> int:
    total = sum(p for _, p in mix)
    acc = 0.0
    for value, p in mix:
        acc += p / total
        if q < acc:
            return value
    return mix[-1][0]


def stratify(
    jobs: Sequence, config: trace_mod.TraceConfig, num_gpus: int, load: float
) -> List:
    """Rank-preserving quantile replacement of durations, gaps, GPU
    counts and model/dataset combinations, with arrivals rescaled to the
    nominal load."""
    if not jobs:
        return []
    normal = NormalDist()

    def duration(q: float) -> float:
        value = config.duration_median_s * math.exp(
            config.duration_sigma * normal.inv_cdf(q)
        )
        return min(config.duration_max_s, max(config.duration_min_s, value))

    durations = _by_rank(
        [job.total_work_mb / job.ideal_throughput_mbps for job in jobs],
        duration,
    )
    submits = [0.0] + [job.submit_time_s for job in jobs]
    gaps = _by_rank(
        [b - a for a, b in zip(submits, submits[1:])],
        lambda q: -math.log(1.0 - q),
    )
    gpus = _by_rank(
        [job.num_gpus for job in jobs],
        lambda q: _discrete_quantile(config.gpu_mix, q),
    )
    # The generator names each private dataset copy "<base>-job<i>".
    combo_ids = {
        (model, ds.name): i for i, (model, ds) in enumerate(FIGURE6_JOBS)
    }
    combos = _by_rank(
        [combo_ids[job.model, job.dataset.name.rsplit("-job", 1)[0]]
         for job in jobs],
        lambda q: FIGURE6_JOBS[int(q * len(FIGURE6_JOBS))],
    )
    # Realised offered load == nominal load: the arrival span is the
    # trace's GPU-seconds over (load x fleet).
    gpu_seconds = sum(g * d for g, d in zip(gpus, durations))
    scale = gpu_seconds / (load * num_gpus) / sum(gaps)
    out = []
    clock = 0.0
    for job, n_gpus, seconds, gap, (model, dataset) in zip(
        jobs, gpus, durations, gaps, combos
    ):
        clock += gap * scale
        out.append(
            make_job(
                job_id=job.job_id,
                model=model,
                dataset=dataclasses.replace(
                    dataset, name=f"{dataset.name}-{job.job_id}"
                ),
                num_gpus=n_gpus,
                duration_at_ideal_s=seconds,
                submit_time_s=clock,
            )
        )
    return out


def make_trace(
    seed: int,
    num_jobs: int,
    num_gpus: int,
    load: float,
    duration_median_s: float,
    duration_sigma: float = 1.2,
    duration_max_s: float = units.hours(24.0),
) -> List:
    """A stratified Philly-like trace (see the module docstring)."""
    config = trace_mod.TraceConfig(
        num_jobs=num_jobs,
        seed=seed,
        duration_median_s=duration_median_s,
        duration_sigma=duration_sigma,
        duration_max_s=duration_max_s,
    )
    config.mean_interarrival_s = trace_mod.arrival_rate_for_load(
        config, num_gpus, load=load
    )
    return stratify(trace_mod.generate_trace(config), config, num_gpus, load)


def build_cluster(spec: BatchSpec) -> Cluster:
    """The fleet with 368 GB of cache per GPU (§7.2) and the spec's
    egress per 100 GPUs."""
    cache_per_server_mb = 4 * units.gb(368.0)
    egress_mbps = units.gbps(
        spec.egress_gbps_per_100_gpus * spec.total_gpus / 100.0
    )
    if spec.gpu_mix:
        return Cluster.build_mixed(
            spec.gpu_mix,
            gpus_per_server=4,
            cache_per_server_mb=cache_per_server_mb,
            remote_io_mbps=egress_mbps,
        )
    return Cluster.build(
        num_servers=spec.num_gpus // 4,
        gpus_per_server=4,
        cache_per_server_mb=cache_per_server_mb,
        remote_io_mbps=egress_mbps,
    )


@dataclasses.dataclass
class Cell:
    """One generated (cluster, trace, fault schedule) input."""

    cluster: Cluster
    jobs: List
    faults: Optional[FaultSchedule]


def make_cells(spec: BatchSpec, seed: int) -> List[Cell]:
    """Every cell of one batch workload for ``seed``."""
    cells = []
    for index in range(spec.cells):
        sub_seed = cell_seed(seed, index)
        cluster = build_cluster(spec)
        jobs = make_trace(
            sub_seed,
            spec.num_jobs,
            spec.total_gpus,
            spec.load,
            spec.duration_median_s,
            spec.duration_sigma,
            spec.duration_max_s,
        )
        faults = None
        if spec.churn_hours > 0:
            faults = generate_churn(
                seed=sub_seed,
                duration_s=units.hours(spec.churn_hours),
                num_servers=len(cluster.servers),
                total_cache_mb=cluster.total_cache_mb,
                cache_loss_interval_s=units.hours(24.0),
            )
        cells.append(Cell(cluster=cluster, jobs=jobs, faults=faults))
    return cells
