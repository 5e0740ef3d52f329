"""Item-granularity cache implementations.

These back the minibatch testbed emulator, the curriculum-learning
experiment (§7.4), and the unit/property tests that validate the fluid
simulator's closed-form hit-ratio models against real eviction behaviour.

Two policies from the paper:

* :class:`UniformItemCache` — cache every missed item until capacity,
  never evict (uniform caching, §2.2). Shrinking the capacity evicts
  uniformly at random, which preserves the uniform-access property.
* :class:`LruItemCache` — classic least-recently-used eviction (Alluxio's
  default), which thrashes under shuffled once-per-epoch access.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Hashable, Set


class UniformItemCache:
    """Uniform caching over unit-size items.

    ``access`` returns whether the item was already cached (a hit) and
    admits it otherwise while capacity remains; cached items are never
    replaced (§2.2: "there is no eviction unless the cache capacity is
    reduced").

    ``rng`` drives the random evictions on :meth:`resize` and is
    *required*: every caller must seed it explicitly (e.g.
    ``random.Random(seed)``) so eviction streams are reproducible —
    an implicit fallback here was the determinism pass's first real
    catch (``DET001``, see ``docs/LINT.md``).
    """

    def __init__(self, capacity: int, rng: random.Random) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if rng is None:
            raise ValueError(
                "rng is required: pass an explicitly seeded "
                "random.Random so evictions are reproducible"
            )
        self._capacity = capacity
        self._items: Set[Hashable] = set()
        self._rng = rng

    @property
    def capacity(self) -> int:
        """Maximum number of cached items."""
        return self._capacity

    @property
    def size(self) -> int:
        """Number of currently cached items."""
        return len(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._items

    def access(self, item: Hashable) -> bool:
        """Access one item; returns True on a hit."""
        if item in self._items:
            return True
        if len(self._items) < self._capacity:
            self._items.add(item)
        return False

    def resize(self, capacity: int) -> None:
        """Change capacity; shrinking evicts uniformly at random (§6)."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = capacity
        excess = len(self._items) - capacity
        if excess > 0:
            # Sort by repr, not hash: builtin hash() is salted per
            # process for strings, which would change the victim set
            # from run to run even under the same seed.
            victims = self._rng.sample(sorted(self._items, key=repr), excess)
            self._items.difference_update(victims)

    def snapshot(self) -> Set[Hashable]:
        """A copy of the cached item set."""
        return set(self._items)


class LruItemCache:
    """Least-recently-used cache over unit-size items."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = capacity
        self._items: "OrderedDict[Hashable, None]" = OrderedDict()

    @property
    def capacity(self) -> int:
        """Maximum number of cached items."""
        return self._capacity

    @property
    def size(self) -> int:
        """Number of currently cached items."""
        return len(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._items

    def access(self, item: Hashable) -> bool:
        """Access one item; returns True on a hit. Misses are admitted."""
        if item in self._items:
            self._items.move_to_end(item)
            return True
        if self._capacity == 0:
            return False
        if len(self._items) >= self._capacity:
            self._items.popitem(last=False)
        self._items[item] = None
        return False

    def resize(self, capacity: int) -> None:
        """Change capacity; shrinking evicts from the LRU end."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = capacity
        while len(self._items) > capacity:
            self._items.popitem(last=False)

    def snapshot(self) -> Set[Hashable]:
        """A copy of the cached item set."""
        return set(self._items)
