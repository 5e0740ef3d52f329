"""The fluid simulator's one record of per-job progress.

Progress is tracked in *bytes of training data consumed*, because with
the pipelined-execution model of §4 every performance quantity is a
data rate. Epoch boundaries — where newly cached items become effective
(§6, "delayed effectiveness") — fall every ``dataset.size_mb`` bytes of
progress.

:class:`JobTable` stores the loop-carried scalars (work done, total
work, epoch size, throughput, miss rate, completed epochs) in per-column
Python lists indexed by row, so a sweep is one tight loop over plain
floats. The table is the only copy: a :class:`JobRow` (the simulator's
per-job state) holds a job and its row index and reads its progress
from the table, and a preemption rolls the row back in place
(:meth:`JobTable.rollback_epoch`).

A fluid step walks the table once. Throughput is constant between
events, so :meth:`JobTable.advance` — while it writes each moving row's
work — also finds the next completion and the next epoch boundary at the
clock it lands on, and flags the rows that completed or crossed a
boundary. The two minima stay valid until the next table write
(admission, retirement, rate write, rollback). A step that wrote the
table ends by sweeping once (:meth:`JobTable.refresh_next_times`), so
the simulator's next-event peek reads stored minima between steps
instead of sweeping again; it falls back to
:meth:`JobTable.next_completion_time` and
:meth:`JobTable.next_epoch_boundary_time` only after a write made
outside a step (a cancellation). No peek ever fills them. :meth:`JobTable.completed_rows` and
:meth:`JobTable.epoch_flips` re-check only the flagged rows: a row's
work grows only in :meth:`JobTable.advance`, and every other write that
can make a row due (admission, rollback, an epoch count) flags it too.

The sweeps only touch *moving* rows — live with a rate above
``rate_eps``. That set changes only when a rate is written or a row is
admitted or retired, so the table keeps the moving rows (with their
rate and total-work values) between those writes instead of rescanning
every live row on every call.

Rows are append-only in admission order — exactly the insertion order of
the simulator's ``_active`` dict — and retirement drops a row from the
ordered live set instead of compacting, so ascending row order is the
sweeps' iteration order.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set, Tuple

from repro.cluster.job import Job

#: Work remaining at or below this makes a job :meth:`JobTable.done`
#: (promotion skips done jobs).
DONE_EPS_MB = 1e-9


class JobTable:
    """Columnar record of per-job progress for one simulation run.

    Parameters
    ----------
    rate_eps:
        Rates at or below this are "stalled" (the simulator's
        ``_RATE_EPS``).
    work_eps_mb:
        Work remaining at or below this counts as completed (the
        simulator's ``_WORK_EPS_MB``).
    snap_mb:
        Positions within this many MB below an epoch boundary count as
        past it (the simulator's ``_EPOCH_SNAP_MB``).
    """

    def __init__(
        self, rate_eps: float, work_eps_mb: float, snap_mb: float
    ) -> None:
        self._rate_eps = rate_eps
        self._work_eps = work_eps_mb
        self._snap = snap_mb
        self._job_ids: List[str] = []
        self._rows = {}  # job_id -> row
        #: The moving rows with their rate and total work (see
        #: :meth:`_moving`), rebuilt lazily after any rate write,
        #: admission or retirement.
        self._moving_cache = None
        #: ``(next completion, next epoch boundary)`` as the last
        #: :meth:`advance` found them at its clock; ``None`` after any
        #: write that can move them. Only :meth:`advance` and
        #: :meth:`refresh_next_times` fill it.
        self._next_times: Optional[Tuple[float, float]] = None
        #: Rows that may be completed or past an unpromoted epoch
        #: boundary: every live row :meth:`completed_rows` or
        #: :meth:`epoch_flips` would report is in here.
        self._due: Set[int] = set()
        self._work: List[float] = []
        self._total: List[float] = []
        self._epoch: List[float] = []
        self._rate: List[float] = []
        self._miss: List[float] = []
        self._epochs_done: List[int] = []
        #: Assigned GPU-generation name per row (``None`` = unassigned).
        self._gen: List[Optional[str]] = []
        #: Ordered set of live rows (dict preserves admission order;
        #: rows only append, so iteration is ascending).
        self._live = {}

    # ------------------------------------------------------------------
    # Row lifecycle.
    # ------------------------------------------------------------------

    def admit(self, job_id: str, total_work_mb: float, epoch_mb: float) -> int:
        """Append a row for a newly admitted job; returns its row index."""
        row = len(self._job_ids)
        self._job_ids.append(job_id)
        self._rows[job_id] = row
        self._work.append(0.0)
        self._total.append(total_work_mb)
        self._epoch.append(epoch_mb)
        self._rate.append(0.0)
        self._miss.append(0.0)
        self._epochs_done.append(0)
        self._gen.append(None)
        self._moving_cache = None
        self._next_times = None
        self._live[row] = None
        self._due.add(row)
        return row

    def retire(self, row: int) -> None:
        """Tombstone a finished job's row (rates zeroed, row not live)."""
        self._rate[row] = 0.0
        self._miss[row] = 0.0
        self._moving_cache = None
        self._next_times = None
        self._live.pop(row, None)

    def row_of(self, job_id: str) -> Optional[int]:
        """Row index for ``job_id`` (``None`` if never admitted)."""
        return self._rows.get(job_id)

    def job_id(self, row: int) -> str:
        """The job id admitted at ``row``."""
        return self._job_ids[row]

    # ------------------------------------------------------------------
    # Scalar accessors.
    # ------------------------------------------------------------------

    def work_done_mb(self, row: int) -> float:
        """Work completed so far at ``row``, in MB."""
        return self._work[row]

    def epoch_index(self, row: int) -> int:
        """Zero-based index of the epoch in progress at ``row``."""
        return int((self._work[row] + self._snap) // self._epoch[row])

    def done(self, row: int) -> bool:
        """Whether ``row`` has consumed all its work."""
        left = self._total[row] - self._work[row]
        return (left if left > 0.0 else 0.0) <= DONE_EPS_MB

    def rollback_epoch(self, row: int) -> float:
        """Roll ``row`` back to its last epoch boundary (a preemption);
        returns the MB of work lost."""
        work = self._work[row]
        position = work - self.epoch_index(row) * self._epoch[row]
        position = position if position > 0.0 else 0.0
        left = work - position
        self._work[row] = left if left > 0.0 else 0.0
        self._next_times = None
        self._due.add(row)
        return position

    def rate(self, row: int) -> float:
        """Current end-to-end throughput at ``row``, in MB/s."""
        return self._rate[row]

    def miss_rate(self, row: int) -> float:
        """Current remote-fetch (miss) rate at ``row``, in MB/s."""
        return self._miss[row]

    def epochs_done(self, row: int) -> int:
        """Epoch boundaries ``row`` has promoted."""
        return self._epochs_done[row]

    def set_epochs_done(self, row: int, value: int) -> None:
        """Record that ``row`` has promoted ``value`` epoch boundaries."""
        self._epochs_done[row] = value
        self._due.add(row)

    def set_generation(self, row: int, name: Optional[str]) -> None:
        """Record ``row``'s assigned GPU generation (``None`` clears)."""
        self._gen[row] = name

    def generation(self, row: int) -> Optional[str]:
        """``row``'s assigned GPU generation, or ``None``."""
        return self._gen[row]

    def clear_rates(self) -> None:
        """Zero every live row's throughput and miss rate (pre-recompute;
        :meth:`retire` already zeroed the rest)."""
        self._moving_cache = None
        self._next_times = None
        for row in self._live:
            self._rate[row] = 0.0
            self._miss[row] = 0.0

    def set_rates_bulk(
        self,
        rows: Sequence[int],
        rates: Sequence[float],
        miss_rates: Sequence[float],
    ) -> None:
        """Install freshly recomputed rates for many rows at once (one
        moving-row invalidation for the whole recompute)."""
        if len(rows) == 0:
            return
        self._moving_cache = None
        self._next_times = None
        for row, rate, miss in zip(rows, rates, miss_rates):
            self._rate[row] = rate
            self._miss[row] = miss

    # ------------------------------------------------------------------
    # Whole-table sweeps (the per-event hot path).
    # ------------------------------------------------------------------

    def _moving(self) -> List[Tuple[int, float, float]]:
        """The live, moving rows with their rate and total work.

        A list of ``(row, rate, total)`` in ascending row order, cached
        between rate writes, admissions and retirements — the only
        mutations that can change the set or the gathered values.
        """
        cached = self._moving_cache
        if cached is None:
            rate, total, eps = self._rate, self._total, self._rate_eps
            cached = [
                (row, rate[row], total[row])
                for row in self._live
                if rate[row] > eps
            ]
            self._moving_cache = cached
        return cached

    # The per-event sweeps below write ``min(a, b)`` as
    # ``b if b < a else a`` and ``max(0.0, x)`` as
    # ``x if x > 0.0 else 0.0``: the same comparisons the builtins make,
    # so ties and NaNs pick the same operand, without a call per row.

    def advance(self, dt: float, clock_s: float) -> None:
        """Advance every live, moving job by ``rate * dt`` (work-capped).

        ``clock_s`` is the clock the advance lands on. The same walk
        finds, from each freshly written work value, the next completion
        and the next epoch boundary at ``clock_s`` (kept for
        :meth:`stored_next_times`, with the expressions, row order and
        strict ``<`` of :meth:`next_completion_time` and
        :meth:`next_epoch_boundary_time`, so they are bitwise theirs),
        and flags the rows that completed or crossed a boundary.
        """
        work_col, epoch_col, epochs_done = (
            self._work, self._epoch, self._epochs_done
        )
        snap, work_eps = self._snap, self._work_eps
        # Rows still due from before stay flagged; the rest drop out.
        due = self._due
        if due:
            due = {row for row in due if self._is_due(row)}
        next_done = next_epoch = math.inf
        for row, rate, total in self._moving():
            done = work_col[row] + rate * dt
            work = done if done < total else total
            work_col[row] = work
            remaining = total - work
            if not remaining > 0.0:
                remaining = 0.0
            t = clock_s + remaining / rate
            if t < next_done:
                next_done = t
            # Bytes to the next boundary, capped at the remaining work.
            epoch = epoch_col[row]
            epoch_index = (work + snap) // epoch
            position = work - epoch_index * epoch
            if not position > 0.0:
                position = 0.0
            to_boundary = epoch - position
            if remaining < to_boundary:
                to_boundary = remaining
            if to_boundary < remaining - work_eps:
                t = clock_s + to_boundary / rate
                if t < next_epoch:
                    next_epoch = t
            if remaining <= work_eps or (
                epoch_index > epochs_done[row] and remaining > DONE_EPS_MB
            ):
                due.add(row)
        self._next_times = (next_done, next_epoch)
        self._due = due

    def stored_next_times(self) -> Optional[Tuple[float, float]]:
        """``(next completion, next epoch boundary)`` as the last
        :meth:`advance` found them, or ``None`` if a table write has
        happened since (then sweep with :meth:`next_completion_time`
        and :meth:`next_epoch_boundary_time`)."""
        return self._next_times

    def refresh_next_times(self, clock_s: float) -> None:
        """Fill the stored ``(next completion, next epoch boundary)``
        with fresh sweeps at ``clock_s`` if a table write dropped them.

        The fluid step calls this as its last act, so the sweep its
        successor's own peek would otherwise make is paid inside the
        step that wrote, and every peek between steps reads stored times
        whether or not that step wrote. A peek never calls it."""
        if self._next_times is None:
            self._next_times = (
                self.next_completion_time(clock_s),
                self.next_epoch_boundary_time(clock_s),
            )

    def next_completion_time(self, clock_s: float) -> float:
        """Earliest ``clock + remaining/rate`` over live, moving jobs."""
        work = self._work
        best = math.inf
        for row, rate, total in self._moving():
            remaining = total - work[row]
            if not remaining > 0.0:
                remaining = 0.0
            t = clock_s + remaining / rate
            if t < best:
                best = t
        return best

    def next_epoch_boundary_time(self, clock_s: float) -> float:
        """Earliest upcoming epoch boundary strictly before completion."""
        work_col, epoch_col = self._work, self._epoch
        snap, work_eps = self._snap, self._work_eps
        best = math.inf
        for row, rate, total in self._moving():
            work = work_col[row]
            epoch = epoch_col[row]
            remaining = total - work
            if not remaining > 0.0:
                remaining = 0.0
            # Bytes to the next boundary, capped at the remaining work.
            epoch_index = (work + snap) // epoch
            position = work - epoch_index * epoch
            if not position > 0.0:
                position = 0.0
            to_boundary = epoch - position
            if remaining < to_boundary:
                to_boundary = remaining
            if to_boundary < remaining - work_eps:
                t = clock_s + to_boundary / rate
                if t < best:
                    best = t
        return best

    def _remaining(self, row: int) -> float:
        remaining = self._total[row] - self._work[row]
        return remaining if remaining > 0.0 else 0.0

    def _flip_index(self, row: int) -> Optional[float]:
        """The epoch index ``row`` has reached if it is unfinished and
        past an unpromoted boundary, else ``None``."""
        if self._remaining(row) > DONE_EPS_MB:
            epoch_index = (self._work[row] + self._snap) // self._epoch[row]
            if epoch_index > self._epochs_done[row]:
                return epoch_index
        return None

    def _is_due(self, row: int) -> bool:
        return row in self._live and (
            self._remaining(row) <= self._work_eps
            or self._flip_index(row) is not None
        )

    def completed_rows(self) -> List[int]:
        """Live rows whose remaining work is within ``work_eps`` (asc).

        Only the flagged rows are re-checked (see the module docstring):
        no other live row can qualify."""
        live, eps = self._live, self._work_eps
        return [
            row for row in sorted(self._due)
            if row in live and self._remaining(row) <= eps
        ]

    def epoch_flips(self) -> List[Tuple[int, int]]:
        """``(row, epochs_now)`` for unfinished jobs past a new boundary
        (ascending rows; only the flagged rows are re-checked)."""
        live = self._live
        flips = []
        for row in sorted(self._due):
            if row in live:
                epoch_index = self._flip_index(row)
                if epoch_index is not None:
                    flips.append((row, int(epoch_index)))
        return flips


class JobRow:
    """A fluid job's runtime state: the job, its table row, and its
    start and finish times. Progress reads through to the table."""

    __slots__ = ("job", "row", "start_time_s", "finish_time_s", "_table")

    def __init__(self, job: Job, row: int, table: JobTable) -> None:
        self.job = job
        self.row = row
        self.start_time_s: Optional[float] = None
        self.finish_time_s: Optional[float] = None
        self._table = table

    @property
    def work_done_mb(self) -> float:
        """Training data consumed so far."""
        return self._table.work_done_mb(self.row)

    @property
    def epochs_done(self) -> int:
        """Epoch boundaries promoted so far."""
        return self._table.epochs_done(self.row)

    @property
    def epoch_index(self) -> int:
        """Zero-based index of the epoch in progress (the epoch number
        lifecycle events report)."""
        return self._table.epoch_index(self.row)

    @property
    def done(self) -> bool:
        """Whether the job has consumed all its work."""
        return self._table.done(self.row)
