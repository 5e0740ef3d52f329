"""Per-job progress state for the fluid simulator's hot loop.

Between events the fluid simulator repeatedly answers four questions
over the whole active set — when is the next completion, when is the
next epoch boundary, advance everyone by ``dt``, who just finished or
crossed an epoch. :class:`JobTable` stores the loop-carried scalars
(work done, total work, epoch size, throughput, miss rate, completed
epochs) in per-column Python lists indexed by row, so each sweep is one
tight loop over plain floats instead of attribute reads on
:class:`~repro.cluster.job.JobProgress` objects.

The three per-event sweeps (advance, next completion, next epoch
boundary) only touch *moving* rows — live with a rate above
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
from typing import List, Optional, Sequence, Tuple


class JobTable:
    """Columnar mirror of per-job progress for one simulation run.

    Parameters
    ----------
    capacity:
        Expected number of rows (the trace length); the table grows past
        it if needed.
    rate_eps:
        Rates at or below this are "stalled" (the simulator's
        ``_RATE_EPS``).
    work_eps_mb:
        Work remaining at or below this counts as completed (the
        simulator's ``_WORK_EPS_MB``).
    snap_mb:
        The epoch-boundary snap tolerance
        (:data:`repro.cluster.job._EPOCH_SNAP_MB`'s value).
    done_eps_mb:
        The ``JobProgress.done`` threshold (promotion skips done jobs).
    """

    def __init__(
        self,
        capacity: int,
        rate_eps: float,
        work_eps_mb: float,
        snap_mb: float,
        done_eps_mb: float = 1e-9,
    ) -> None:
        self._rate_eps = rate_eps
        self._work_eps = work_eps_mb
        self._snap = snap_mb
        self._done_eps = done_eps_mb
        self._n = 0
        self._job_ids: List[str] = []
        self._rows = {}  # job_id -> row
        #: Interned GPU-generation names; the ``_gen`` column stores
        #: indices into this list (-1 = unassigned).
        self._gen_names: List[str] = []
        self._gen_codes = {}  # name -> index
        #: The moving rows with their rate and total work (see
        #: :meth:`_moving`), rebuilt lazily after any rate write,
        #: admission or retirement.
        self._moving_cache = None
        capacity = max(1, capacity)
        self._work = [0.0] * capacity
        self._total = [0.0] * capacity
        self._epoch = [1.0] * capacity
        self._rate = [0.0] * capacity
        self._miss = [0.0] * capacity
        self._epochs_done = [0.0] * capacity
        self._gen = [-1] * capacity
        #: Ordered set of live rows (dict preserves admission order;
        #: rows only append, so iteration is ascending).
        self._live = {}

    # ------------------------------------------------------------------
    # Row lifecycle.
    # ------------------------------------------------------------------

    def _grow(self, capacity: int) -> None:
        extra = max(capacity - len(self._work), len(self._work))
        self._work.extend([0.0] * extra)
        self._total.extend([0.0] * extra)
        self._epoch.extend([1.0] * extra)
        self._rate.extend([0.0] * extra)
        self._miss.extend([0.0] * extra)
        self._epochs_done.extend([0.0] * extra)
        self._gen.extend([-1] * extra)

    def admit(self, job_id: str, total_work_mb: float, epoch_mb: float) -> int:
        """Append a row for a newly admitted job; returns its row index."""
        if self._n >= len(self._work):
            self._grow(self._n + 1)
        row = self._n
        self._n += 1
        self._job_ids.append(job_id)
        self._rows[job_id] = row
        self._work[row] = 0.0
        self._total[row] = total_work_mb
        self._epoch[row] = epoch_mb
        self._rate[row] = 0.0
        self._miss[row] = 0.0
        self._epochs_done[row] = 0.0
        self._gen[row] = -1
        self._moving_cache = None
        self._live[row] = None
        return row

    def retire(self, row: int) -> None:
        """Tombstone a finished job's row (rates zeroed, row not live)."""
        self._rate[row] = 0.0
        self._miss[row] = 0.0
        self._moving_cache = None
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
        return float(self._work[row])

    def set_work_done_mb(self, row: int, value: float) -> None:
        """Overwrite ``row``'s completed work (preemption rollback)."""
        self._work[row] = value

    def rate(self, row: int) -> float:
        """Current end-to-end throughput at ``row``, in MB/s."""
        return float(self._rate[row])

    def miss_rate(self, row: int) -> float:
        """Current remote-fetch (miss) rate at ``row``, in MB/s."""
        return float(self._miss[row])

    def epochs_done(self, row: int) -> int:
        """Epoch boundaries already promoted for ``row``."""
        return int(self._epochs_done[row])

    def set_epochs_done(self, row: int, value: int) -> None:
        """Record that ``row`` has promoted ``value`` epoch boundaries."""
        self._epochs_done[row] = float(value)

    def set_generation(self, row: int, name: Optional[str]) -> None:
        """Record ``row``'s assigned GPU generation (``None`` clears)."""
        if name is None:
            self._gen[row] = -1
            return
        code = self._gen_codes.get(name)
        if code is None:
            code = len(self._gen_names)
            self._gen_codes[name] = code
            self._gen_names.append(name)
        self._gen[row] = code

    def generation(self, row: int) -> Optional[str]:
        """``row``'s assigned GPU generation, or ``None``."""
        code = int(self._gen[row])
        if code < 0:
            return None
        return self._gen_names[code]

    def clear_rates(self) -> None:
        """Zero every row's throughput and miss rate (pre-recompute)."""
        self._moving_cache = None
        for row in range(self._n):
            self._rate[row] = 0.0
            self._miss[row] = 0.0

    def set_rate(self, row: int, rate: float, miss_rate: float) -> None:
        """Install ``row``'s freshly recomputed throughput and miss rate."""
        self._moving_cache = None
        self._rate[row] = rate
        self._miss[row] = miss_rate

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

    def advance(self, dt: float) -> None:
        """Advance every live, moving job by ``rate * dt`` (work-capped)."""
        work = self._work
        for row, rate, total in self._moving():
            done = work[row] + rate * dt
            work[row] = done if done < total else total

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
            # JobProgress.work_to_epoch_boundary_mb, term by term.
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

    def completed_rows(self) -> List[int]:
        """Live rows whose remaining work is within ``work_eps`` (asc)."""
        total, work, eps = self._total, self._work, self._work_eps
        done = []
        for row in self._live:
            remaining = total[row] - work[row]
            if not remaining > 0.0:
                remaining = 0.0
            if remaining <= eps:
                done.append(row)
        return done

    def epoch_flips(self) -> List[Tuple[int, int]]:
        """``(row, epochs_now)`` for unfinished jobs past a new boundary."""
        total, work_col, epoch = self._total, self._work, self._epoch
        epochs_done, snap, done_eps = (
            self._epochs_done, self._snap, self._done_eps
        )
        flips = []
        for row in self._live:
            work = work_col[row]
            remaining = total[row] - work
            if not remaining > 0.0:
                remaining = 0.0
            if remaining > done_eps:
                epoch_index = (work + snap) // epoch[row]
                if epoch_index > epochs_done[row]:
                    flips.append((row, int(epoch_index)))
        return flips
