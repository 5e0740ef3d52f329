"""Per-job access bitsets (§6) and the row-liveness bitset.

SiloD "maintains a bitset for each job to track its accessed items",
enabling fine-grained policies to inspect the *effective* cache size and
the instantaneous remote-IO demand. The testbed emulator uses
:class:`JobAccessBitset` for exactly that: items cached before the job's
current epoch began are effective; items cached mid-epoch are resident but
cannot produce hits until the next epoch (delayed effectiveness).

:class:`RowBitset` is the pool-level analogue used by the vectorized hot
paths (the array residency store in :mod:`repro.cache.residency` and the
fluid simulator's job table): columnar state is append-only, so "which
rows are live" is one growable bitset — a numpy bool array whose raw mask
feeds elementwise math directly, or a bytearray under the pure-Python
fallback (``REPRO_NO_NUMPY=1``).
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Set

from repro.backend import numpy_enabled, require_numpy


class JobAccessBitset:
    """Tracks one job's per-epoch item accesses and effective cache view."""

    def __init__(self) -> None:
        self._accessed_this_epoch: Set[Hashable] = set()
        self._effective: Set[Hashable] = set()
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Zero-based index of the epoch in progress."""
        return self._epoch

    @property
    def accessed_this_epoch(self) -> int:
        """Items the job has read so far in the current epoch."""
        return len(self._accessed_this_epoch)

    def mark_accessed(self, item: Hashable) -> None:
        """Record that the job read ``item`` in the current epoch."""
        self._accessed_this_epoch.add(item)

    def is_effective(self, item: Hashable) -> bool:
        """Whether a cached ``item`` can produce a hit for this job now."""
        return item in self._effective

    def effective_count(self, resident: Set[Hashable]) -> int:
        """Effective cache size: resident items usable by this job."""
        return len(self._effective & resident)

    def start_epoch(self, resident: Iterable[Hashable]) -> None:
        """Begin a new epoch: everything resident *now* becomes effective."""
        self._effective = set(resident)
        self._accessed_this_epoch.clear()
        self._epoch += 1

    def reset(self, resident: Iterable[Hashable] = ()) -> None:
        """Reset to a fresh job whose first epoch sees ``resident`` items.

        A job joining a dataset another job already cached benefits
        immediately (those items predate its first epoch).
        """
        self._effective = set(resident)
        self._accessed_this_epoch.clear()
        self._epoch = 0


class RowBitset:
    """A growable bitset over dense row indices (tombstone tracking).

    Append-only columnar stores mark retired rows dead here instead of
    compacting. The numpy backend exposes the raw bool array through
    :meth:`mask` so hot-path math can exclude tombstoned rows without a
    Python loop; the fallback backend stores a bytearray and offers the
    same scalar operations.
    """

    def __init__(
        self, capacity: int = 0, vectorized: Optional[bool] = None
    ) -> None:
        self._vectorized = (
            numpy_enabled() if vectorized is None else vectorized
        )
        capacity = max(1, capacity)
        if self._vectorized:
            self._np = require_numpy()
            self._bits = self._np.zeros(capacity, dtype=bool)
        else:
            self._bits = bytearray(capacity)

    @property
    def vectorized(self) -> bool:
        """Whether the bitset is numpy-backed."""
        return self._vectorized

    @property
    def capacity(self) -> int:
        """Rows currently addressable without growing."""
        return len(self._bits)

    def grow(self, capacity: int) -> None:
        """Ensure at least ``capacity`` addressable rows (amortised 2x)."""
        if capacity <= len(self._bits):
            return
        new_cap = max(capacity, 2 * len(self._bits))
        if self._vectorized:
            bits = self._np.zeros(new_cap, dtype=bool)
            bits[: len(self._bits)] = self._bits
            self._bits = bits
        else:
            self._bits.extend(bytearray(new_cap - len(self._bits)))

    def set(self, row: int) -> None:
        """Mark ``row`` live."""
        self._bits[row] = True

    def clear(self, row: int) -> None:
        """Mark ``row`` dead (tombstone)."""
        self._bits[row] = False

    def test(self, row: int) -> bool:
        """Whether ``row`` is live."""
        return bool(self._bits[row])

    def mask(self, n: int):
        """Bool array view of the first ``n`` rows (numpy backend only)."""
        if not self._vectorized:
            raise RuntimeError("mask() requires the numpy backend")
        return self._bits[:n]

    def count(self, n: int) -> int:
        """Number of live rows among the first ``n``."""
        if self._vectorized:
            return int(self._np.count_nonzero(self._bits[:n]))
        total = 0
        for row in range(n):
            if self._bits[row]:
                total += 1
        return total

    def live_rows(self, n: int) -> List[int]:
        """Ascending list of live row indices among the first ``n``."""
        if self._vectorized:
            return self._np.nonzero(self._bits[:n])[0].tolist()
        return [row for row in range(n) if self._bits[row]]
