"""What the benchmark reads from the host: memory, CPU time and speed.

The shared test host's speed swings by up to 1.8x over minutes (other
tenants, frequency changes), and a run's host times swing with it. So
the batch workloads divide each cell's host times by a *calibration*: a
fixed loop of interpreter and small-array work that uses no code of the
program, timed in the same process right before and after the cell.
Multiplied by :data:`REFERENCE_S`, a normalised time reads as host
seconds on a reference host where the loop takes that long. A change to
the program moves the measured work but not the loop, so the ratio still
shows it. (``serve.py`` says why the serve workload does not.)
"""

from __future__ import annotations

import time

import numpy as np

#: Calibration-loop time on the reference host (a quiet 2-vCPU Xeon VM);
#: normalised times are in seconds of that host.
REFERENCE_S = 0.006
#: Calibration samples per side of a measured piece of work; the fastest
#: is kept, as noise only ever adds time.
SAMPLES = 5


def _calibration_loop() -> float:
    acc = 0.0
    table = {}
    for i in range(20000):
        table[i & 1023] = i * 0.5
        acc += table.get((i * 7) & 1023, 0.0)
    keys = [(i * 7919) % 1009 for i in range(2000)]
    for _ in range(5):
        sorted(keys)
    vec = np.arange(256.0)
    for _ in range(400):
        vec = vec * 1.0001 + 0.5
        acc += float(vec.sum())
    return acc


def calibration_s(samples: int = SAMPLES) -> float:
    """Fastest of ``samples`` timings of the calibration loop."""
    best = float("inf")
    for _ in range(samples):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(before_s: float, after_s: float) -> float:
    """Multiplier turning host seconds measured between two calibrations
    into reference seconds."""
    return REFERENCE_S / min(before_s, after_s)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def cpu_s(pid: int) -> float:
    """CPU seconds a live single-threaded process has run (ns clock)."""
    with open(f"/proc/{pid}/schedstat") as handle:
        return int(handle.read().split()[0]) / 1e9
