"""The columnar numpy residency store: the dict store's reference.

:class:`ArrayResidencyStore` keeps each cache key's size, resident
bytes and target in three numpy columns. Rows are append-only; popped
keys are tombstoned with all scalars zeroed, so aggregate reductions
over the raw columns remain exact. No simulator constructs it: the
residency property tests and the anchor suites hold
:class:`~repro.cache.residency.DictResidencyStore` to it, bit for bit.
It lives apart from :mod:`repro.cache.residency` so that only code
that builds it loads numpy; that module still resolves the name.

How the two non-trivial parts of the contract stay bit-identical:

* :meth:`~ArrayResidencyStore.total_resident_mb` uses
  ``np.cumsum(...)[-1]`` — a *sequential* prefix sum, not numpy's
  pairwise ``np.sum`` — and tombstoned rows contribute an exact
  ``0.0`` (``x + 0.0 == x`` for every non-negative float).
* :meth:`~ArrayResidencyStore.stale_first_keys` gathers live rows in
  insertion order and applies ``np.argsort(kind="stable")``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cache.residency import ResidencyStore


class ArrayResidencyStore(ResidencyStore):
    """Columnar numpy store with tombstoned rows."""

    def __init__(self, capacity: int = 16) -> None:
        capacity = max(1, capacity)
        self._n = 0  # rows allocated (live + tombstoned)
        #: key -> row, insertion-ordered; pops delete, so iterating this
        #: dict IS the live-keys-in-insertion-order view.
        self._index: Dict[str, int] = {}
        self._size = np.zeros(capacity)
        self._resident = np.zeros(capacity)
        self._target = np.zeros(capacity)
        #: Bumped whenever the key set changes (a key created or popped);
        #: plans captured under an older version are stale.
        self.keyset_version = 0

    def _grow(self, capacity: int) -> None:
        new_cap = max(capacity, 2 * len(self._size))
        for name in ("_size", "_resident", "_target"):
            old = getattr(self, name)
            new = np.zeros(new_cap)
            new[: len(old)] = old
            setattr(self, name, new)

    def ensure(self, key: str, size_mb: float) -> None:
        if key in self._index:
            return
        if self._n >= len(self._size):
            self._grow(self._n + 1)
        row = self._n
        self._n += 1
        self._index[key] = row
        self._size[row] = size_mb
        self._resident[row] = 0.0
        self._target[row] = 0.0
        self.keyset_version += 1

    def pop(self, key: str) -> None:
        row = self._index.pop(key, None)
        if row is None:
            return
        # Zero the tombstone so raw-column reductions stay exact.
        self._size[row] = 0.0
        self._resident[row] = 0.0
        self._target[row] = 0.0
        self.keyset_version += 1

    def keys(self) -> List[str]:
        return list(self._index)

    def snapshot(self, key: str) -> Optional[Tuple[float, float, float]]:
        row = self._index.get(key)
        if row is None:
            return None
        return (
            float(self._size[row]),
            float(self._resident[row]),
            float(self._target[row]),
        )

    def size_mb(self, key: str) -> float:
        """Dataset size (fill ceiling) for ``key``, in MB."""
        return float(self._size[self._index[key]])

    def resident_mb(self, key: str) -> float:
        """Bytes currently resident for ``key``, in MB."""
        return float(self._resident[self._index[key]])

    def target_mb(self, key: str) -> float:
        """Current placement target for ``key``, in MB."""
        return float(self._target[self._index[key]])

    def set_size_mb(self, key: str, value: float) -> None:
        """Set ``key``'s dataset size (fill ceiling)."""
        self._size[self._index[key]] = value

    def set_resident_mb(self, key: str, value: float) -> None:
        """Set ``key``'s resident bytes."""
        self._resident[self._index[key]] = value

    def set_target_mb(self, key: str, value: float) -> None:
        """Set ``key``'s placement target."""
        self._target[self._index[key]] = value

    def total_resident_mb(self) -> float:
        if self._n == 0:
            return 0.0
        # cumsum is a sequential prefix sum — unlike np.sum's pairwise
        # reduction it adds left to right, exactly like the dict
        # store's loop; tombstoned rows contribute an exact 0.0.
        return float(np.cumsum(self._resident[: self._n])[-1])

    def stale_first_keys(self) -> List[str]:
        if not self._index:
            return []
        keys = list(self._index)
        rows = np.fromiter(
            self._index.values(), dtype=np.intp, count=len(keys)
        )
        order = np.argsort(self._target[rows], kind="stable")
        return [keys[i] for i in order]

    def reclaim_candidates(self) -> List[Tuple[str, float, float]]:
        if not self._index:
            return []
        keys = list(self._index)
        rows = np.fromiter(
            self._index.values(), dtype=np.intp, count=len(keys)
        )
        resident = self._resident[rows]
        target = self._target[rows]
        idx = np.nonzero(resident > target)[0]
        if idx.size == 0:
            return []
        sel = idx[np.argsort(target[idx], kind="stable")]
        return list(
            zip(
                (keys[i] for i in sel.tolist()),
                resident[sel].tolist(),
                target[sel].tolist(),
            )
        )

    def clear_targets_except(self, keep: Iterable[str]) -> None:
        if not self._index:
            return
        rows = np.fromiter(
            self._index.values(), dtype=np.intp, count=len(self._index)
        )
        mask = np.zeros(self._n, dtype=bool)
        mask[rows] = True
        keep_rows = [
            self._index[key] for key in keep if key in self._index
        ]
        if keep_rows:
            mask[np.asarray(keep_rows, dtype=np.intp)] = False
        self._target[: self._n][mask] = 0.0

    def apply_targets(
        self,
        targets: Dict[str, float],
        sizes: Dict[str, float],
    ) -> List[Tuple[str, float]]:
        """Install a placement decision's targets in one pass."""
        if not targets:
            return []
        keys = list(targets)
        for key in keys:
            if key not in self._index:
                self.ensure(key, sizes.get(key, targets[key]))
        n = len(keys)
        rows = np.fromiter(
            (self._index[key] for key in keys), dtype=np.intp, count=n
        )
        wanted = np.fromiter(targets.values(), dtype=float, count=n)
        # max(size, sizes.get(key, size)): keys without a running sharer
        # keep their size — -inf loses every maximum exactly.
        floors = np.fromiter(
            (sizes.get(key, -math.inf) for key in keys),
            dtype=float,
            count=n,
        )
        size = np.maximum(self._size[rows], floors)
        self._size[rows] = size
        new_targets = np.minimum(wanted, size)
        self._target[rows] = new_targets
        over = np.nonzero(self._resident[rows] > new_targets + 1e-9)[0]
        return [(keys[i], float(new_targets[i])) for i in over.tolist()]

    def make_fill_plan(self, items):
        index = self._index
        rows = []
        rates = []
        for key, rate in items:
            row = index.get(key)
            if row is None:
                continue
            rows.append(row)
            rates.append(rate)
        return (
            self.keyset_version,
            np.asarray(rows, dtype=np.intp),
            np.asarray(rates, dtype=float),
        )

    def run_fill_plan(self, plan, dt: float) -> bool:
        version, rows, rates = plan
        if version != self.keyset_version:
            return False
        if rows.size == 0:
            return True
        resident = self._resident[rows]
        target = self._target[rows]
        # Scalar path, elementwise: skip keys at target; cap at
        # min(target, size); fill resident + rate * dt.
        filling = resident < target - 1e-9
        if not filling.any():
            return True
        cap = np.minimum(target, self._size[rows])
        new = np.minimum(cap, resident + rates * dt)
        self._resident[rows[filling]] = new[filling]
        return True

