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
* :class:`~repro.cache.array_residency.ArrayResidencyStore` — columnar
  numpy arrays, in its own module so that importing this one loads no
  numpy. No simulator constructs it: it is the independent reference
  the residency property tests hold the dict store to. It stays
  reachable as ``repro.cache.residency.ArrayResidencyStore`` (resolved
  on first access, PEP 562), the name those tests and per-layer
  tracing use.

Equivalence contract: for any operation sequence the two stores return
bit-identical floats. The two non-trivial cases are handled explicitly:

* :meth:`ResidencyStore.total_resident_mb` must equal a sequential
  left-to-right Python sum over keys in insertion order.
* :meth:`ResidencyStore.stale_first_keys` must equal Python's stable
  ``sorted(keys, key=target)``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple


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
            # ``max(size, grown)`` and ``min(target, size)`` as the
            # builtins' own comparisons (same ties and NaNs).
            size = state.size_mb
            grown = sizes.get(key, size)
            if grown > size:
                state.size_mb = size = grown
            new_target = size if size < target else target
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


def __getattr__(name: str) -> object:
    if name == "ArrayResidencyStore":
        from repro.cache.array_residency import ArrayResidencyStore

        return ArrayResidencyStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
