"""Gavel's joint solver on the Figure 12/13 rounds: sizes and solve times.

``GavelPolicy._schedule_joint`` runs ``_solve_scalar`` on rounds of at
most ``_SCALAR_MAX_JOBS`` jobs and ``_solve_numpy`` above it. This
benchmark checks that split against the rounds the cluster-scale
figures really solve: it runs Figure 12's and Figure 13's Gavel x SiloD
cells, times both solvers on every joint round (best of three each,
bit-identical results asserted) and reports, per round-size band, the
round count and the summed solve time of scalar everywhere, numpy
everywhere and the size switch. docs/PERFORMANCE.md records the table.
"""

import time

from repro.analysis.tables import render_table
from repro.core.policies import gavel
from repro.core.policies.gavel import _SCALAR_MAX_JOBS
from repro.sim.runner import run_experiment

from benchmarks.conftest import cluster_trace, scaled_cluster_400

#: (figure, trace kwargs) of the two Gavel x SiloD cells.
CELLS = (("fig12", {}), ("fig13", {"load": 2.5}))
BANDS = (
    ("1-40", 1, _SCALAR_MAX_JOBS),
    ("41-64", _SCALAR_MAX_JOBS + 1, 64),
    ("65-100", 65, 100),
    ("101+", 101, None),
)


def _best_of_three(fn):
    # Real wall-clock on purpose: this times the solvers, not simulated
    # events.
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()  # lint: disable=DET003
        fn()
        best = min(best, time.perf_counter() - start)  # lint: disable=DET003
    return best


def _solution_hex(solution):
    return [
        value.hex()
        for value in (
            solution.targets
            + solution.gpus
            + solution.remote_io_mbps
            + solution.cache_mb
            + [solution.used_io_mbps]
        )
    ]


def _timed_rounds(trace_kwargs, monkeypatch):
    """``(jobs, scalar_s, numpy_s)`` for every joint round of one cell."""
    rounds = []
    schedule_joint = gavel.GavelPolicy._schedule_joint

    def spy(policy, jobs, total, ctx, shares, allocation):
        def scalar():
            return policy._solve_scalar(jobs, total, ctx, shares)

        def numpy():
            return policy._solve_numpy(jobs, total, ctx, shares)

        assert _solution_hex(scalar()) == _solution_hex(numpy())
        rounds.append(
            (len(jobs), _best_of_three(scalar), _best_of_three(numpy))
        )
        schedule_joint(policy, jobs, total, ctx, shares, allocation)

    with monkeypatch.context() as patch:
        patch.setattr(gavel.GavelPolicy, "_schedule_joint", spy)
        run_experiment(
            scaled_cluster_400(),
            "gavel",
            "silod",
            cluster_trace(**trace_kwargs),
            reschedule_interval_s=1800.0,
            sample_interval_s=3600.0,
        )
    return rounds


def test_perf_gavel_round_sizes_fig12_13(benchmark, report, monkeypatch):
    def measure():
        return {
            figure: _timed_rounds(trace_kwargs, monkeypatch)
            for figure, trace_kwargs in CELLS
        }

    cells = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    for figure, rounds in cells.items():
        for band, low, high in BANDS:
            sel = [
                r for r in rounds
                if r[0] >= low and (high is None or r[0] <= high)
            ]
            rows.append(
                {
                    "cell": f"{figure} gavel x silod",
                    "jobs/round": band,
                    "rounds": len(sel),
                    "scalar (s)": sum(r[1] for r in sel),
                    "numpy (s)": sum(r[2] for r in sel),
                    "switch (s)": sum(
                        r[1] if r[0] <= _SCALAR_MAX_JOBS else r[2]
                        for r in sel
                    ),
                }
            )
    report(
        "perf_gavel_rounds",
        render_table(
            rows, title="Gavel joint solve time on Figure 12/13 rounds"
        ),
    )
    # The split is only worth keeping while the cluster-scale figures
    # solve rounds on both sides of it.
    for rounds in cells.values():
        sizes = [r[0] for r in rounds]
        assert min(sizes) <= _SCALAR_MAX_JOBS < max(sizes)
