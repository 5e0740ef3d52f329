"""The fluid simulator's numeric backend: numpy vs the fallback by fleet size.

``FluidSimulator`` picks its backend once, at construction, from the
fleet's GPU count: fleets below ``VECTORIZE_MIN_GPUS`` run the
pure-Python fallback, larger ones numpy. This benchmark times fluid
cells shaped like perfbench's ``fluid_fifo`` (fifo x silod at load 1.5,
two jobs per GPU, 368 GB of cache per GPU, 8 Gbps of egress per 100
GPUs) from 32 to 160 GPUs under both backends (three seeded cells per
size, each timed best of three with the backends alternating), asserts
that both give identical end times and JCTs and that the fallback is
faster at every swept size below the threshold, and reports the
numpy/fallback time ratio per size.
docs/PERFORMANCE.md records the table.
"""

import time

from repro import units
from repro.analysis.tables import render_table
from repro.backend import (
    BACKEND_FALLBACK,
    BACKEND_VECTORIZED,
    VECTORIZE_MIN_GPUS,
    using_backend,
)
from repro.cluster.hardware import Cluster
from repro.sim.runner import run_experiment
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)

SIZES = (32, 48, 64, 80, 96, 160)
#: Seeded cells per fleet size.
CELLS = 3
#: Timed runs per cell and backend, alternating backends; the best
#: one counts.
REPEATS = 3


def _cell(gpus, seed):
    cluster = Cluster.build(
        num_servers=gpus // 4,
        gpus_per_server=4,
        cache_per_server_mb=4 * units.gb(368.0),
        remote_io_mbps=units.gbps(8.0 * gpus / 100.0),
    )
    cfg = TraceConfig(
        num_jobs=2 * gpus,
        seed=seed,
        duration_median_s=7200.0,
        duration_sigma=1.2,
    )
    cfg.mean_interarrival_s = arrival_rate_for_load(cfg, gpus, load=1.5)
    return cluster, generate_trace(cfg)


def _timed_cell(cluster, jobs):
    """``{backend: best wall seconds}`` for one cell; both backends must
    give the same end time and JCTs."""
    best, outcome = {}, {}
    for _ in range(REPEATS):
        for backend in (BACKEND_VECTORIZED, BACKEND_FALLBACK):
            with using_backend(backend):
                # Real wall-clock on purpose: this times the backends,
                # not simulated events.
                start = time.perf_counter()  # lint: disable=DET003
                result = run_experiment(
                    cluster,
                    "fifo",
                    "silod",
                    jobs,
                    reschedule_interval_s=1800.0,
                    sample_interval_s=3600.0,
                )
                elapsed = (
                    time.perf_counter() - start  # lint: disable=DET003
                )
            best[backend] = min(best.get(backend, elapsed), elapsed)
            outcome[backend] = (
                result.end_time_s.hex(),
                [record.jct_s.hex() for record in result.records],
            )
    assert outcome[BACKEND_VECTORIZED] == outcome[BACKEND_FALLBACK]
    return best


def test_perf_backend_crossover(benchmark, report):
    def measure():
        rows = []
        for gpus in SIZES:
            numpy_s = fallback_s = 0.0
            for seed in range(CELLS):
                best = _timed_cell(*_cell(gpus, seed))
                numpy_s += best[BACKEND_VECTORIZED]
                fallback_s += best[BACKEND_FALLBACK]
            rows.append((gpus, numpy_s, fallback_s))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "perf_backend_crossover",
        render_table(
            [
                {
                    "GPUs": gpus,
                    "jobs/cell": 2 * gpus,
                    "numpy (s)": numpy_s,
                    "fallback (s)": fallback_s,
                    "numpy / fallback": numpy_s / fallback_s,
                    "chosen": (
                        "numpy" if gpus >= VECTORIZE_MIN_GPUS
                        else "fallback"
                    ),
                }
                for gpus, numpy_s, fallback_s in rows
            ],
            title="Fluid cells of fluid_fifo shape: numpy vs fallback",
        ),
    )
    # The threshold is only worth keeping while the sweep straddles it,
    # and it promises that every fleet it sends to the fallback runs
    # faster there.
    assert SIZES[0] < VECTORIZE_MIN_GPUS <= SIZES[-1]
    for gpus, numpy_s, fallback_s in rows:
        if gpus < VECTORIZE_MIN_GPUS:
            assert numpy_s > fallback_s, (gpus, numpy_s, fallback_s)
