"""Datasets and the dataset registry.

SiloD differs from file/block-oriented caches by being aware of the
*dataset* and *job* abstractions (§6): cache is allocated to datasets (and
shared transparently by every job training on the same dataset), while
remote IO bandwidth is allocated to jobs.

A :class:`Dataset` here carries the only attributes that matter to caching
behaviour: total size, item count (so item-level simulations can draw access
sequences), and an identity used for sharing.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterator, Optional


@dataclasses.dataclass(frozen=True)
class Dataset:
    """An immutable description of a training dataset.

    Attributes
    ----------
    name:
        Unique identifier. Jobs referring to the same name share cache.
    size_mb:
        Total size in MB.
    num_items:
        Number of data items (images, sequences, ...). Item-level cache
        simulations use this; the fluid model only needs ``size_mb``.
    """

    name: str
    size_mb: float
    num_items: int = 1_000_000

    def __post_init__(self) -> None:
        if not math.isfinite(self.size_mb) or self.size_mb <= 0:
            raise ValueError(
                f"dataset {self.name!r} must have positive finite size"
            )
        if self.num_items <= 0:
            raise ValueError(f"dataset {self.name!r} must have positive item count")

    @property
    def item_size_mb(self) -> float:
        """Average size of one data item in MB."""
        return self.size_mb / self.num_items


class DatasetRegistry:
    """A collection of datasets keyed by name.

    The registry guarantees one :class:`Dataset` object per name so that
    dataset-level cache accounting (charge once per dataset, §6) can key on
    the object identity or name interchangeably.
    """

    def __init__(self) -> None:
        self._datasets: Dict[str, Dataset] = {}

    def add(self, dataset: Dataset) -> Dataset:
        """Register ``dataset``; re-registering an identical one is a no-op."""
        existing = self._datasets.get(dataset.name)
        if existing is not None:
            if existing != dataset:
                raise ValueError(
                    f"dataset {dataset.name!r} already registered with "
                    f"different attributes"
                )
            return existing
        self._datasets[dataset.name] = dataset
        return dataset

    def get(self, name: str) -> Dataset:
        """Look up a dataset by name, raising ``KeyError`` if unknown."""
        return self._datasets[name]

    def find(self, name: str) -> Optional[Dataset]:
        """Look up a dataset by name, returning ``None`` if unknown."""
        return self._datasets.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def __iter__(self) -> Iterator[Dataset]:
        return iter(self._datasets.values())

    def __len__(self) -> int:
        return len(self._datasets)
