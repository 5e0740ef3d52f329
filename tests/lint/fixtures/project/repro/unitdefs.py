"""XUNI fixture: a helper whose return unit (seconds) must be inferred.

MB divided by MB/s is seconds; the fixpoint exports that unit to the
callers in ``unituse.py``.
"""


def transfer_time(size_mb, bw_mbps):
    return size_mb / bw_mbps


def capped_transfer_time(size_mb, bw_mbps, cap):
    wait = size_mb / bw_mbps
    # ``min(cap, wait)`` as its comparison keeps min's unit: seconds.
    return wait if wait < cap else cap
