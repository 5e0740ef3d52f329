"""The job table against a plain reference, bitwise.

The table keeps its moving rows (with their rate and total-work values)
between rate writes, its per-event sweeps write the builtin
``min``/``max`` as comparisons, and :meth:`JobTable.advance` finds the
next event times and the due rows in the same walk that writes the work.
The reference rescans its live rows on every sweep, calls the builtins,
and advances without remembering anything. Any interleaving of rate
writes, admissions, retirements, rollbacks, epoch counts and (zero or
positive) advances with the sweeps must give the table the reference's
floats, and the next event times :meth:`JobTable.advance` stored must be
bitwise those of fresh sweeps while no write has made them stale.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.jobtable import DONE_EPS_MB, JobTable

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
            # Totals within work_eps and epochs within snap are due at
            # admission: done, or past a boundary, before any advance.
            st.one_of(
                st.just(5e-4), st.floats(1.0, 1e5, allow_nan=False)
            ),
            st.one_of(
                st.just(5e-7), st.floats(1.0, 4e4, allow_nan=False)
            ),
        ),
        st.tuples(st.just("set_rate"), st.integers(0, 15), RATES),
        st.tuples(
            st.just("set_rates_bulk"),
            st.lists(st.integers(0, 15), max_size=6, unique=True),
            RATES,
        ),
        st.tuples(st.just("clear_rates"), st.just(0), st.just(0.0)),
        st.tuples(st.just("retire"), st.integers(0, 15), st.just(0.0)),
        st.tuples(st.just("rollback"), st.integers(0, 15), st.just(0.0)),
        st.tuples(
            st.just("advance"),
            st.just(0),
            st.one_of(st.just(0.0), st.floats(0.0, 5e3, allow_nan=False)),
        ),
        st.tuples(st.just("flip"), st.just(0), st.just(0.0)),
        st.tuples(st.just("refresh"), st.just(0), st.just(0.0)),
        # Any epoch count, lower ones included: a row can fall due again.
        st.tuples(
            st.just("set_epochs"), st.integers(0, 15), st.integers(0, 4)
        ),
    ),
    min_size=1,
    max_size=60,
)


class ReferenceTable(JobTable):
    """Rescans its live rows on every sweep and uses the builtin
    ``min``/``max``: the reference the table is held to."""

    def _moving(self):
        self._moving_cache = None
        return super()._moving()

    def advance(self, dt, clock_s):
        for row, rate, total in self._moving():
            self._work[row] = min(total, self._work[row] + rate * dt)

    def next_completion_time(self, clock_s):
        best = math.inf
        for row, rate, total in self._moving():
            remaining = max(0.0, total - self._work[row])
            best = min(best, clock_s + remaining / rate)
        return best

    def next_epoch_boundary_time(self, clock_s):
        best = math.inf
        for row, rate, total in self._moving():
            work = self._work[row]
            epoch = self._epoch[row]
            remaining = max(0.0, total - work)
            epoch_index = (work + self._snap) // epoch
            position = max(0.0, work - epoch_index * epoch)
            to_boundary = min(epoch - position, remaining)
            if to_boundary < remaining - self._work_eps:
                best = min(best, clock_s + to_boundary / rate)
        return best

    def rollback_epoch(self, row):
        # The position within the current epoch, written out, then the
        # preemption's max(0, work - position).
        work = self._work[row]
        size = self._epoch[row]
        epoch_index = int((work + self._snap) // size)
        position = max(0.0, work - epoch_index * size)
        self._work[row] = max(0.0, work - position)
        return position

    def completed_rows(self):
        done = []
        for row in self._live:
            remaining = max(0.0, self._total[row] - self._work[row])
            if remaining <= self._work_eps:
                done.append(row)
        return done

    def epoch_flips(self):
        flips = []
        for row in self._live:
            work = self._work[row]
            remaining = max(0.0, self._total[row] - work)
            epoch_index = (work + self._snap) // self._epoch[row]
            if remaining > DONE_EPS_MB and (
                epoch_index > self._epochs_done[row]
            ):
                flips.append((row, int(epoch_index)))
        return flips


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


#: Ops after which the table's stored next event times must be stale.
WRITES = {"admit", "set_rate", "set_rates_bulk", "clear_rates", "retire",
          "rollback"}
#: Ops naming one row, skipped while that row is not admitted yet.
ROW_OPS = {"set_rate", "retire", "rollback", "set_epochs"}


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
# A rate write right after a sweep filled the moving-row caches.
@example(ops=[("admit", 100.0, 50.0), ("set_rate", 0, 1.0)])
@example(ops=[("admit", 100.0, 50.0), ("set_rates_bulk", [0], 1.0)])
# A completed row rolled back before it retires is past a boundary.
@example(ops=[("admit", 100.0, 30.0), ("set_rate", 0, 1.0),
              ("advance", 0, 200.0), ("rollback", 0, 0.0)])
# A lowered epoch count makes a row that is not moving due again.
@example(ops=[("admit", 100.0, 30.0), ("set_rate", 0, 1.0),
              ("advance", 0, 70.0), ("flip", 0, 0.0), ("clear_rates", 0, 0.0),
              ("advance", 0, 1.0), ("set_epochs", 0, 0)])
def test_table_matches_reference_bitwise(ops):
    check_against_reference(ops)


def check_against_reference(ops):
    """Apply ``ops`` to a table and the reference; compare after each."""
    tables = [
        JobTable(RATE_EPS, 1e-3, 1e-6),
        ReferenceTable(RATE_EPS, 1e-3, 1e-6),
    ]
    rows = 0
    clock_s = 0.0
    for op, arg, value in ops:
        if op in ROW_OPS and arg >= rows:
            continue  # no such row yet
        if op == "set_rates_bulk":
            arg = [row for row in arg if row < rows]
        rolled_back = []
        for table in tables:
            if op == "admit":
                table.admit(f"j{rows}", arg, value)
            elif op == "set_rate":
                table.set_rates_bulk([arg], [value], [value * 0.5])
            elif op == "set_rates_bulk":
                table.set_rates_bulk(
                    arg,
                    [value * (i + 1) for i in range(len(arg))],
                    [value] * len(arg),
                )
            elif op == "clear_rates":
                table.clear_rates()
            elif op == "retire":
                table.retire(arg)
            elif op == "rollback":
                rolled_back.append(table.rollback_epoch(arg).hex())
            elif op == "advance":
                table.advance(value, clock_s + value)
            elif op == "flip":
                for row, epochs in table.epoch_flips():
                    table.set_epochs_done(row, epochs)
            elif op == "set_epochs":
                table.set_epochs_done(arg, value)
            elif op == "refresh" and table is tables[0]:
                table.refresh_next_times(clock_s)
        if op == "admit":
            rows += 1
        elif op == "advance":
            clock_s += value
        table, ref = tables
        assert rolled_back[:1] == rolled_back[1:]
        assert _bits(_sweeps(table, clock_s)) == _bits(
            _sweeps(ref, clock_s)
        )
        assert [table.work_done_mb(r).hex() for r in range(rows)] == [
            ref.work_done_mb(r).hex() for r in range(rows)
        ]
        stored = table.stored_next_times()
        if op in ("advance", "refresh"):
            assert stored is not None
        elif op in WRITES and (op != "set_rates_bulk" or arg):
            # Every write that can move an event time drops them.
            assert stored is None
        if stored is not None:
            # Held until a write, and bitwise a fresh sweep's answer.
            assert _bits(list(stored)) == _bits([
                ref.next_completion_time(clock_s),
                ref.next_epoch_boundary_time(clock_s),
            ])


def test_sweeps_never_fill_the_stored_times():
    table = JobTable(RATE_EPS, 1e-3, 1e-6)
    row = table.admit("j0", 100.0, 30.0)
    table.set_rates_bulk([row], [1.0], [0.5])
    table.advance(10.0, 10.0)
    assert table.stored_next_times() == (100.0, 30.0)
    table.set_rates_bulk([row], [2.0], [1.0])
    for _ in range(3):
        assert table.next_completion_time(10.0) == 55.0
        assert table.next_epoch_boundary_time(10.0) == 20.0
        table.completed_rows()
        table.epoch_flips()
    assert table.stored_next_times() is None
    table.advance(0.0, 10.0)
    assert table.stored_next_times() == (55.0, 20.0)


def test_refresh_fills_only_dropped_stored_times():
    table = JobTable(RATE_EPS, 1e-3, 1e-6)
    row = table.admit("j0", 100.0, 30.0)
    table.set_rates_bulk([row], [1.0], [0.5])
    table.refresh_next_times(0.0)
    assert table.stored_next_times() == (100.0, 30.0)
    # Still valid: a refresh at another clock keeps what is stored.
    table.refresh_next_times(10.0)
    assert table.stored_next_times() == (100.0, 30.0)
    table.set_rates_bulk([row], [2.0], [1.0])
    table.refresh_next_times(0.0)
    assert table.stored_next_times() == (50.0, 15.0)
