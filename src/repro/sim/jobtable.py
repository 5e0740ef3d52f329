"""Columnar per-job progress state for the fluid simulator's hot loop.

Between events the fluid simulator repeatedly answers four questions
over the whole active set — when is the next completion, when is the
next epoch boundary, advance everyone by ``dt``, who just finished or
crossed an epoch — and each was a Python loop over
:class:`~repro.cluster.job.JobProgress` objects. :class:`JobTable`
stores the loop-carried scalars (work done, total work, epoch size,
throughput, miss rate, completed epochs) columnarly so those sweeps are
single numpy expressions; the pure-Python fallback (``REPRO_NO_NUMPY=1``)
runs the same arithmetic as explicit loops.

The three per-event sweeps (advance, next completion, next epoch
boundary) only touch *moving* rows — live with a rate above
``rate_eps``. That set changes only when a rate is written or a row is
admitted or retired, so both tables keep the moving rows (with their
rate and total-work gathers) between those writes instead of
rescanning every live row on every call.

Rows are append-only in admission order — exactly the insertion order of
the simulator's ``_active`` dict — and retirement tombstones a row via a
:class:`~repro.cache.bitset.RowBitset` instead of compacting, so
ascending row order is always the fallback's iteration order and
``np.nonzero`` row lists line up with it.

Equivalence contract (``docs/PERFORMANCE.md``): both backends produce
bit-identical floats. Every vectorized expression mirrors the scalar
formula operation for operation (same operand order, same intermediate
expressions); reductions are value-only ``min``s (order-independent);
and the one subtle primitive — float floor division in the epoch index —
relies on ``np.floor_divide`` matching CPython's ``//`` for positive
finite doubles, which the property tests fuzz explicitly.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.backend import require_numpy
from repro.cache.bitset import RowBitset


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
    vectorized:
        The caller's backend: numpy columns or Python lists.
    """

    def __init__(
        self,
        capacity: int,
        rate_eps: float,
        work_eps_mb: float,
        snap_mb: float,
        done_eps_mb: float = 1e-9,
        *,
        vectorized: bool,
    ) -> None:
        self._vectorized = vectorized
        self._rate_eps = rate_eps
        self._work_eps = work_eps_mb
        self._snap = snap_mb
        self._done_eps = done_eps_mb
        self._n = 0
        self._job_ids: List[str] = []
        self._rows = {}  # job_id -> row
        #: Interned GPU-generation names; the ``_gen`` column stores
        #: indices into this list (-1 = unassigned). Kept as small-int
        #: codes so the column stays numeric on both backends.
        self._gen_names: List[str] = []
        self._gen_codes = {}  # name -> index
        #: The moving rows with their rate and total work, on both
        #: backends (index arrays on numpy, a row list on the fallback;
        #: see :meth:`_moving`), rebuilt lazily after any rate write,
        #: admission or retirement.
        self._moving_cache = None
        capacity = max(1, capacity)
        if self._vectorized:
            np = require_numpy()
            self._np = np
            self._work = np.zeros(capacity)
            self._total = np.zeros(capacity)
            self._epoch = np.ones(capacity)  # avoid 0-division on spares
            self._rate = np.zeros(capacity)
            self._miss = np.zeros(capacity)
            self._epochs_done = np.zeros(capacity)
            self._gen = np.full(capacity, -1, dtype=np.intp)
            self._alive = RowBitset(capacity)
        else:
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

    @property
    def backend(self) -> str:
        """``"vectorized"`` or ``"fallback"``."""
        return "vectorized" if self._vectorized else "fallback"

    # ------------------------------------------------------------------
    # Row lifecycle.
    # ------------------------------------------------------------------

    def _grow(self, capacity: int) -> None:
        if self._vectorized:
            np = self._np
            new_cap = max(capacity, 2 * len(self._work))
            for name, fill in (
                ("_work", 0.0),
                ("_total", 0.0),
                ("_epoch", 1.0),
                ("_rate", 0.0),
                ("_miss", 0.0),
                ("_epochs_done", 0.0),
            ):
                old = getattr(self, name)
                new = np.full(new_cap, fill)
                new[: len(old)] = old
                setattr(self, name, new)
            gen = np.full(new_cap, -1, dtype=np.intp)
            gen[: len(self._gen)] = self._gen
            self._gen = gen
            self._alive.grow(new_cap)
        else:
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
        if self._vectorized:
            self._alive.set(row)
        else:
            self._live[row] = None
        return row

    def retire(self, row: int) -> None:
        """Tombstone a finished job's row (rates zeroed, mask cleared)."""
        self._rate[row] = 0.0
        self._miss[row] = 0.0
        self._moving_cache = None
        if self._vectorized:
            self._alive.clear(row)
        else:
            self._live.pop(row, None)

    def row_of(self, job_id: str) -> Optional[int]:
        """Row index for ``job_id`` (``None`` if never admitted)."""
        return self._rows.get(job_id)

    def job_id(self, row: int) -> str:
        """The job id admitted at ``row``."""
        return self._job_ids[row]

    # ------------------------------------------------------------------
    # Scalar accessors (always plain Python floats).
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
        if self._vectorized:
            self._rate[: self._n] = 0.0
            self._miss[: self._n] = 0.0
        else:
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
        """Scatter freshly recomputed rates for many rows at once.

        One fancy-indexed assignment instead of per-row numpy scalar
        writes — the rate recompute runs on every storage decision, so
        the per-element write cost matters. Accepts lists or arrays.
        """
        if len(rows) == 0:
            return
        self._moving_cache = None
        if self._vectorized:
            np = self._np
            idx = np.asarray(rows, dtype=np.intp)
            self._rate[idx] = np.asarray(rates, dtype=float)
            self._miss[idx] = np.asarray(miss_rates, dtype=float)
            return
        for row, rate, miss in zip(rows, rates, miss_rates):
            self._rate[row] = rate
            self._miss[row] = miss

    # ------------------------------------------------------------------
    # Whole-table sweeps (the per-event hot path).
    # ------------------------------------------------------------------

    def _moving(self):
        """The live, moving rows with their rate and total work.

        ``(rows, rate[rows], total[rows])`` arrays on the numpy backend,
        a list of ``(row, rate, total)`` in ascending row order on the
        fallback. Cached between rate writes, admissions and
        retirements — the only mutations that can change the set or
        the gathered values.
        """
        cached = self._moving_cache
        if cached is None:
            rate, total, eps = self._rate, self._total, self._rate_eps
            if self._vectorized:
                n = self._n
                rows = self._np.nonzero(
                    self._alive.mask(n) & (rate[:n] > eps)
                )[0]
                cached = (rows, rate[rows], total[rows])
            else:
                cached = [
                    (row, rate[row], total[row])
                    for row in self._live
                    if rate[row] > eps
                ]
            self._moving_cache = cached
        return cached

    def advance(self, dt: float) -> None:
        """Advance every live, moving job by ``rate * dt`` (work-capped)."""
        if self._vectorized:
            rows, rate, total = self._moving()
            if rows.size == 0:
                return
            # Same expression as the scalar path:
            # min(total, work + rate * dt).
            work = self._work
            work[rows] = self._np.minimum(total, work[rows] + rate * dt)
            return
        for row, rate, total in self._moving():
            self._work[row] = min(total, self._work[row] + rate * dt)

    def next_completion_time(self, clock_s: float) -> float:
        """Earliest ``clock + remaining/rate`` over live, moving jobs."""
        if self._vectorized:
            np = self._np
            rows, rate, total = self._moving()
            if rows.size == 0:
                return math.inf
            remaining = np.maximum(0.0, total - self._work[rows])
            return float(np.min(clock_s + remaining / rate))
        best = math.inf
        for row, rate, total in self._moving():
            remaining = max(0.0, total - self._work[row])
            best = min(best, clock_s + remaining / rate)
        return best

    def next_epoch_boundary_time(self, clock_s: float) -> float:
        """Earliest upcoming epoch boundary strictly before completion."""
        if self._vectorized:
            np = self._np
            rows, rate, total = self._moving()
            if rows.size == 0:
                return math.inf
            work = self._work[rows]
            epoch = self._epoch[rows]
            remaining = np.maximum(0.0, total - work)
            # JobProgress.work_to_epoch_boundary_mb, term by term.
            epoch_index = np.floor_divide(work + self._snap, epoch)
            position = np.maximum(0.0, work - epoch_index * epoch)
            to_boundary = np.minimum(epoch - position, remaining)
            sel = to_boundary < remaining - self._work_eps
            if not sel.any():
                return math.inf
            return float(np.min(clock_s + to_boundary[sel] / rate[sel]))
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

    def completed_rows(self) -> List[int]:
        """Live rows whose remaining work is within ``work_eps`` (asc)."""
        if self._vectorized:
            np = self._np
            n = self._n
            if n == 0:
                return []
            remaining = np.maximum(0.0, self._total[:n] - self._work[:n])
            mask = self._alive.mask(n) & (remaining <= self._work_eps)
            return np.nonzero(mask)[0].tolist()
        done = []
        for row in self._live:
            remaining = max(0.0, self._total[row] - self._work[row])
            if remaining <= self._work_eps:
                done.append(row)
        return done

    def epoch_flips(self) -> List[Tuple[int, int]]:
        """``(row, epochs_now)`` for unfinished jobs past a new boundary."""
        if self._vectorized:
            np = self._np
            n = self._n
            if n == 0:
                return []
            work = self._work[:n]
            remaining = np.maximum(0.0, self._total[:n] - work)
            epoch_index = np.floor_divide(
                work + self._snap, self._epoch[:n]
            )
            mask = (
                self._alive.mask(n)
                & (remaining > self._done_eps)
                & (epoch_index > self._epochs_done[:n])
            )
            rows = np.nonzero(mask)[0]
            counts = epoch_index[rows].astype(int)
            return list(zip(rows.tolist(), counts.tolist()))
        flips = []
        for row in self._live:
            work = self._work[row]
            remaining = max(0.0, self._total[row] - work)
            epoch_index = (work + self._snap) // self._epoch[row]
            if remaining > self._done_eps and (
                epoch_index > self._epochs_done[row]
            ):
                flips.append((row, int(epoch_index)))
        return flips
