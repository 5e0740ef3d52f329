"""The numpy job table against its pure-Python reference, bitwise.

Both tables keep the moving rows (with their rate and total-work
gathers) between rate writes, the numpy one as index arrays and the
fallback as a row list; a fallback table that rescans its live rows on
every sweep is the reference. Any interleaving of rate writes,
admissions, retirements and rollbacks with the sweeps must give both
tables the reference's floats.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.jobtable import JobTable

np = pytest.importorskip("numpy")

from repro.backend import numpy_enabled  # noqa: E402

pytestmark = pytest.mark.skipif(
    not numpy_enabled(),
    reason="REPRO_NO_NUMPY forces the pure-Python fallback",
)

RATE_EPS = 1e-9

#: Rates straddling the stall threshold as well as ordinary ones.
RATES = st.one_of(
    st.sampled_from([0.0, RATE_EPS, 2e-9, 1e-12]),
    st.floats(1e-3, 500.0, allow_nan=False),
)

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("admit"),
            st.floats(1.0, 1e5, allow_nan=False),
            st.floats(1.0, 4e4, allow_nan=False),
        ),
        st.tuples(st.just("set_rate"), st.integers(0, 15), RATES),
        st.tuples(
            st.just("set_rates_bulk"),
            st.lists(st.integers(0, 15), max_size=6, unique=True),
            RATES,
        ),
        st.tuples(st.just("clear_rates"), st.just(0), st.just(0.0)),
        st.tuples(st.just("retire"), st.integers(0, 15), st.just(0.0)),
        st.tuples(
            st.just("rollback"),
            st.integers(0, 15),
            st.floats(0.0, 1.0, allow_nan=False),
        ),
        st.tuples(
            st.just("advance"),
            st.just(0),
            st.floats(0.0, 5e3, allow_nan=False),
        ),
        st.tuples(st.just("flip"), st.just(0), st.just(0.0)),
    ),
    min_size=1,
    max_size=60,
)


class UncachedTable(JobTable):
    """The fallback table rescanning its live rows on every sweep: the
    reference both caching tables are held to."""

    def _moving(self):
        self._moving_cache = None
        return super()._moving()


def _sweeps(table, clock_s):
    return (
        table.next_completion_time(clock_s),
        table.next_epoch_boundary_time(clock_s),
        table.completed_rows(),
        table.epoch_flips(),
    )


def _bits(value):
    if isinstance(value, float):
        return "inf" if math.isinf(value) else value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


@settings(max_examples=150, deadline=None)
@given(ops=OPS)
# A rate write right after a sweep filled the moving-row caches.
@example(ops=[("admit", 100.0, 50.0), ("set_rate", 0, 1.0)])
@example(ops=[("admit", 100.0, 50.0), ("set_rates_bulk", [0], 1.0)])
def test_numpy_table_matches_fallback_bitwise(ops):
    tables = [
        JobTable(4, RATE_EPS, 1e-3, 1e-6, vectorized=True),
        JobTable(4, RATE_EPS, 1e-3, 1e-6, vectorized=False),
        UncachedTable(4, RATE_EPS, 1e-3, 1e-6, vectorized=False),
    ]
    rows = 0
    clock_s = 0.0
    for op, arg, value in ops:
        for table in tables:
            if op == "admit":
                table.admit(f"j{rows}", arg, value)
            elif op == "set_rate" and arg < rows:
                table.set_rate(arg, value, value * 0.5)
            elif op == "set_rates_bulk":
                picked = [row for row in arg if row < rows]
                table.set_rates_bulk(
                    picked,
                    [value * (i + 1) for i in range(len(picked))],
                    [value] * len(picked),
                )
            elif op == "clear_rates":
                table.clear_rates()
            elif op == "retire" and arg < rows:
                table.retire(arg)
            elif op == "rollback" and arg < rows:
                table.set_work_done_mb(
                    arg, table.work_done_mb(arg) * value
                )
            elif op == "advance":
                table.advance(value)
            elif op == "flip":
                for row, epochs in table.epoch_flips():
                    table.set_epochs_done(row, epochs)
        if op == "admit":
            rows += 1
        elif op == "advance":
            clock_s += value
        *cached, ref = tables
        for table in cached:
            assert _bits(_sweeps(table, clock_s)) == _bits(
                _sweeps(ref, clock_s)
            )
            assert [table.work_done_mb(r).hex() for r in range(rows)] == [
                ref.work_done_mb(r).hex() for r in range(rows)
            ]
