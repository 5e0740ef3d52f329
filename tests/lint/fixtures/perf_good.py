"""Fixture: the clean twin of ``perf_bad`` — bulk APIs and justified scans."""

from repro.cache.residency import ResidencyStore  # noqa: F401


def total_resident(cache_store) -> float:
    """The bulk accessor replaces the per-key scan."""
    return cache_store.total_resident_mb()


def reclaim(cache_store, overshoot_mb: float) -> None:
    """A deliberate scan on an off-nominal path, with justification."""
    # Reclaim only runs on overshoot and stops early; scan is fine.
    # lint: disable=PERF001
    for key in cache_store.stale_first_keys():
        _size, resident_mb, target_mb = cache_store.snapshot(key)
        cut = min(resident_mb - target_mb, overshoot_mb)
        if cut > 0:
            cache_store.set_resident_mb(key, resident_mb - cut)
            overshoot_mb -= cut
        if overshoot_mb <= 1e-6:
            return


def plain_dict_loop(counters) -> float:
    """Loops over non-cache state are not the pass's business."""
    total = 0.0
    for _name, value in counters.items():
        total += value
    return total
