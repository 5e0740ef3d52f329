"""Unit helpers used throughout the library.

Internal conventions
--------------------
* **Size** is measured in megabytes (MB, 1e6 bytes would be ambiguous; we
  follow the paper and treat 1 GB = 1024 MB, 1 TB = 1024 GB).
* **Throughput / bandwidth** is measured in MB/s.
* **Time** is measured in seconds.

The helpers below convert the units the paper quotes (GB, TB, Gbps,
minutes) into the internal convention and back, so that experiment code can
read like the paper ("1.6 Gbps remote IO", "1.3 TB dataset", "3,500
minutes").
"""

from __future__ import annotations

#: Megabytes per gigabyte / terabyte (binary convention, as in the paper's
#: "143 GB ImageNet-1k" style figures).
MB_PER_GB = 1024.0
MB_PER_TB = 1024.0 * 1024.0

#: The paper converts 1.6 Gbps to 200 MB/s, i.e. 1 Gbps = 125 MB/s
#: (decimal gigabit over binary megabyte is close enough at the paper's
#: precision; we follow their 8 bits/byte convention exactly).
MB_PER_SECOND_PER_GBPS = 125.0

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

#: Milliseconds per second — observability surfaces (e.g. the
#: ``sched_decision`` event's ``latency_ms``) report wall-clock
#: latencies in ms while simulation time stays in seconds.
MS_PER_SECOND = 1000.0


def gb(value: float) -> float:
    """Convert gigabytes to MB."""
    return value * MB_PER_GB


def tb(value: float) -> float:
    """Convert terabytes to MB."""
    return value * MB_PER_TB


def mb_to_gb(value_mb: float) -> float:
    """Convert MB to gigabytes."""
    return value_mb / MB_PER_GB


def mb_to_tb(value_mb: float) -> float:
    """Convert MB to terabytes."""
    return value_mb / MB_PER_TB


def gbps(value: float) -> float:
    """Convert gigabits/second to MB/s (1.6 Gbps -> 200 MB/s)."""
    return value * MB_PER_SECOND_PER_GBPS


def mbps_to_gbps(value_mbps: float) -> float:
    """Convert MB/s back to gigabits/second."""
    return value_mbps / MB_PER_SECOND_PER_GBPS


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return value * SECONDS_PER_MINUTE


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return value * SECONDS_PER_HOUR


def days(value: float) -> float:
    """Convert days to seconds."""
    return value * SECONDS_PER_DAY


def weeks(value: float) -> float:
    """Convert weeks to seconds."""
    return value * SECONDS_PER_WEEK


def seconds_to_minutes(value_s: float) -> float:
    """Convert seconds to minutes (the unit the paper reports JCT in)."""
    return value_s / SECONDS_PER_MINUTE


def seconds_to_ms(value_s: float) -> float:
    """Convert seconds to milliseconds (observability latencies)."""
    return value_s * MS_PER_SECOND
