"""Pool-level cache residency state.

The fluid simulator tracks three scalars per cache key — the dataset
size (fill ceiling), the bytes currently resident, and the placement
target — and, *every event*, needs two aggregate views of them: the
total resident bytes (the overshoot reclaimer's admission check) and a
stale-data-first ordering (smallest target first) when the pool is
oversubscribed.

:class:`ResidencyStore` keeps the per-key scalars behind accessor
methods, with two implementations of the one contract:

* :class:`DictResidencyStore` — the store the fluid simulator runs on:
  a dict of :class:`KeyState`;
* :class:`ArrayResidencyStore` — columnar numpy arrays. Rows are
  append-only; popped keys are tombstoned with all scalars zeroed, so
  aggregate reductions over the raw columns remain exact. No simulator
  constructs it: it is the independent reference the residency
  property tests hold the dict store to.

Equivalence contract: for any operation sequence the two stores return
bit-identical floats. The two non-trivial cases are handled explicitly:

* :meth:`ResidencyStore.total_resident_mb` must equal a sequential
  left-to-right Python sum over keys in insertion order. The array
  store uses ``np.cumsum(...)[-1]`` — a *sequential* prefix sum, not
  numpy's pairwise ``np.sum`` — and tombstoned rows contribute an exact
  ``0.0`` (``x + 0.0 == x`` for every non-negative float).
* :meth:`ResidencyStore.stale_first_keys` must equal Python's stable
  ``sorted(keys, key=target)``. The array store gathers live rows in
  insertion order and applies ``np.argsort(kind="stable")``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


@dataclasses.dataclass
class KeyState:
    """Resident bytes and placement target for one cache key."""

    size_mb: float  # dataset size (fill ceiling)
    resident_mb: float = 0.0
    target_mb: float = 0.0


class ResidencyStore:
    """Accessor contract shared by the two stores.

    Keys iterate in insertion order (the order :meth:`ensure` first saw
    them); a popped key's order slot is gone for good. All getters raise
    ``KeyError`` for unknown keys except :meth:`snapshot`, which returns
    ``None`` — the hot loop's one-lookup read.

    The *fill plan* (:meth:`make_fill_plan` / :meth:`run_fill_plan`)
    hoists the per-key work of the repeated linear fill out of the
    simulator's hot loop. The dict store's plan resolves keys on every
    run and never goes stale. The array store's plan captures the
    key→row mapping once, so it is tied to the key set it was built
    against: it reports staleness (via ``keyset_version``) instead of
    silently touching the wrong rows, and the caller rebuilds.
    """

    def ensure(self, key: str, size_mb: float) -> None:
        """Create ``key`` (resident and target zero) if absent."""
        raise NotImplementedError

    def pop(self, key: str) -> None:
        """Drop ``key`` entirely (missing keys are a no-op)."""
        raise NotImplementedError

    def keys(self) -> List[str]:
        """Live keys in insertion order."""
        raise NotImplementedError

    def snapshot(self, key: str) -> Optional[Tuple[float, float, float]]:
        """``(size_mb, resident_mb, target_mb)`` or ``None`` if absent."""
        raise NotImplementedError

    def size_mb(self, key: str) -> float:
        """Dataset size (fill ceiling) for ``key``, in MB."""
        raise NotImplementedError

    def resident_mb(self, key: str) -> float:
        """Bytes currently resident for ``key``, in MB."""
        raise NotImplementedError

    def target_mb(self, key: str) -> float:
        """Current placement target for ``key``, in MB."""
        raise NotImplementedError

    def set_size_mb(self, key: str, value: float) -> None:
        """Set ``key``'s dataset size (fill ceiling)."""
        raise NotImplementedError

    def set_resident_mb(self, key: str, value: float) -> None:
        """Set ``key``'s resident bytes."""
        raise NotImplementedError

    def set_target_mb(self, key: str, value: float) -> None:
        """Set ``key``'s placement target."""
        raise NotImplementedError

    def total_resident_mb(self) -> float:
        """Sequential sum of resident bytes over keys in insertion order."""
        raise NotImplementedError

    def stale_first_keys(self) -> List[str]:
        """Live keys ascending by target (stable in insertion order)."""
        raise NotImplementedError

    def reclaim_candidates(self) -> List[Tuple[str, float, float]]:
        """``(key, resident_mb, target_mb)`` for over-resident keys.

        Exactly the keys a ``stale_first_keys()`` walk would *not* skip
        when reclaiming overshoot — ``resident > target`` — in the same
        stale-data-first order (ascending target, stable in insertion
        order). Filtering before sorting is equivalent: a stable sort
        preserves the relative order of the surviving keys either way.
        """
        raise NotImplementedError

    def clear_targets_except(self, keep: Iterable[str]) -> None:
        """Zero the target of every live key not named in ``keep``."""
        raise NotImplementedError

    def apply_targets(
        self,
        targets: Dict[str, float],
        sizes: Dict[str, float],
    ) -> List[Tuple[str, float]]:
        """Install a placement decision's targets in one pass.

        For each ``key -> target``: the key is created if absent (sized
        from ``sizes``, falling back to the target), its size floor is
        raised to ``sizes[key]`` when given, and its target becomes
        ``min(target, size)``. Returns ``(key, new_target)`` for every
        key left over-resident (``resident > target + 1e-9``), in
        ``targets`` order — the caller evicts those (with whatever
        bookkeeping eviction implies).
        """
        raise NotImplementedError

    def make_fill_plan(self, items):
        """Plan a repeated linear cache fill for ``(key, rate)`` pairs.

        Each run of the plan advances every planned key by
        ``rate * dt`` MB, capped at ``min(target, size)`` and skipping
        keys already at target (``resident >= target - 1e-9``) — the
        single-filler fast path of the fluid simulator's
        ``_advance_to``, with bit-identical arithmetic on both stores.
        Keys missing at plan time are skipped (the caller re-plans when
        the key set changes).
        """
        raise NotImplementedError

    def run_fill_plan(self, plan, dt: float) -> bool:
        """Advance a fill plan by ``dt`` seconds.

        Returns ``False`` (without touching anything) when the key set
        changed since the plan was made; the caller rebuilds the plan.
        """
        raise NotImplementedError

    # Convenience used by tests and debugging, not the hot loop.
    def __contains__(self, key: str) -> bool:
        return self.snapshot(key) is not None

    def __len__(self) -> int:
        return len(self.keys())


class DictResidencyStore(ResidencyStore):
    """The simulator's store: a dict of :class:`KeyState`."""

    def __init__(self) -> None:
        self._states: Dict[str, KeyState] = {}

    def ensure(self, key: str, size_mb: float) -> None:
        if key not in self._states:
            self._states[key] = KeyState(size_mb=size_mb)

    def pop(self, key: str) -> None:
        self._states.pop(key, None)

    def keys(self) -> List[str]:
        return list(self._states)

    def snapshot(self, key: str) -> Optional[Tuple[float, float, float]]:
        state = self._states.get(key)
        if state is None:
            return None
        return (state.size_mb, state.resident_mb, state.target_mb)

    def size_mb(self, key: str) -> float:
        """Dataset size (fill ceiling) for ``key``, in MB."""
        return self._states[key].size_mb

    def resident_mb(self, key: str) -> float:
        """Bytes currently resident for ``key``, in MB."""
        return self._states[key].resident_mb

    def target_mb(self, key: str) -> float:
        """Current placement target for ``key``, in MB."""
        return self._states[key].target_mb

    def set_size_mb(self, key: str, value: float) -> None:
        """Set ``key``'s dataset size (fill ceiling)."""
        self._states[key].size_mb = value

    def set_resident_mb(self, key: str, value: float) -> None:
        """Set ``key``'s resident bytes."""
        self._states[key].resident_mb = value

    def set_target_mb(self, key: str, value: float) -> None:
        """Set ``key``'s placement target."""
        self._states[key].target_mb = value

    def total_resident_mb(self) -> float:
        # An explicit sequential loop, NOT builtin sum(): the contract
        # is left-to-right addition (what cumsum computes), and sum()'s
        # float strategy is a CPython version detail (3.12 made it
        # compensated).
        total = 0.0
        for state in self._states.values():
            total += state.resident_mb
        return total

    def stale_first_keys(self) -> List[str]:
        return sorted(
            self._states, key=lambda key: self._states[key].target_mb
        )

    def reclaim_candidates(self) -> List[Tuple[str, float, float]]:
        states = self._states
        over = [
            key
            for key, state in states.items()
            if state.resident_mb > state.target_mb
        ]
        over.sort(key=lambda key: states[key].target_mb)
        return [
            (key, states[key].resident_mb, states[key].target_mb)
            for key in over
        ]

    def clear_targets_except(self, keep: Iterable[str]) -> None:
        keep = keep if isinstance(keep, (set, dict, frozenset)) else set(keep)
        for key, state in self._states.items():
            if key not in keep:
                state.target_mb = 0.0

    def apply_targets(
        self,
        targets: Dict[str, float],
        sizes: Dict[str, float],
    ) -> List[Tuple[str, float]]:
        """Install a placement decision's targets in one pass."""
        over = []
        for key, target in targets.items():
            state = self._states.get(key)
            if state is None:
                state = KeyState(size_mb=sizes.get(key, target))
                self._states[key] = state
            state.size_mb = max(state.size_mb, sizes.get(key, state.size_mb))
            new_target = min(target, state.size_mb)
            state.target_mb = new_target
            if state.resident_mb > new_target + 1e-9:
                over.append((key, new_target))
        return over

    def make_fill_plan(self, items):
        return list(items)

    def run_fill_plan(self, plan, dt: float) -> bool:
        states = self._states
        for key, rate in plan:
            state = states.get(key)
            if state is None:
                continue
            resident = state.resident_mb
            target = state.target_mb
            if resident >= target - 1e-9:
                continue
            # min(target, size) and min(cap, filled), written as the
            # builtins' own comparisons (same ties, same NaN choice).
            size = state.size_mb
            cap = size if size < target else target
            filled = resident + rate * dt
            state.resident_mb = filled if filled < cap else cap
        return True


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

