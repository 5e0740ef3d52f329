"""Fixture: scalar per-key cache sweep in a module handling cache state."""

from repro.cache.residency import ResidencyStore  # noqa: F401


def total_resident(cache_store) -> float:
    """Re-implements total_resident_mb with a per-key scan."""
    total = 0.0
    for key in cache_store.keys():  # PERF001: per-item cache sweep
        total += cache_store.resident_mb(key)
    return total


def shrink_all(cache_store, factor: float) -> None:
    """Per-key scalar writes over the whole store."""
    for key in cache_store.stale_first_keys():  # PERF001
        cache_store.set_resident_mb(
            key, cache_store.resident_mb(key) * factor
        )
