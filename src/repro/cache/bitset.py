"""Per-job access bitsets (§6).

SiloD "maintains a bitset for each job to track its accessed items",
enabling fine-grained policies to inspect the *effective* cache size and
the instantaneous remote-IO demand. The testbed emulator uses
:class:`JobAccessBitset` for exactly that: items cached before the job's
current epoch began are effective; items cached mid-epoch are resident but
cannot produce hits until the next epoch (delayed effectiveness).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Set


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

