"""The SiloD closed-form performance model (§4, Equations 1-5).

Deep-learning training pipelines data loading with computation at batch
granularity (Figure 5). Under *uniform caching* — cache each item until the
allocation is full, never evict — the shuffled once-per-epoch access
pattern makes the expected hit ratio exactly ``c/d`` regardless of *which*
items are cached. From that the paper derives:

* Eq 1: end-to-end throughput is the bottleneck stage,
  ``SiloDPerf = min(f*, f)``.
* Eq 2: a job loading data at rate ``f`` with cache ``c`` over a dataset of
  size ``d`` demands remote IO ``b = f * (1 - c/d)``.
* Eq 3: inverting, a remote-IO allocation ``b`` supports data loading at
  ``f = b / (1 - c/d)`` (IOPerf).
* Eq 4: ``SiloDPerf = min(f*, b / (1 - c/d))``.
* Eq 5: cache efficiency — remote IO saved per unit of cache at the ideal
  operating point — is ``-∂b/∂c = f*/d``.

All throughputs are MB/s and sizes MB. The functions are deliberately
free-standing (no classes) so policies can call them on plain numbers.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

#: Tolerance used when a cache allocation covers the whole dataset and the
#: miss ratio denominator vanishes.
_EPS = 1e-12


def hit_ratio(cache_mb: float, dataset_mb: float) -> float:
    """Expected uniform-caching hit ratio ``c/d``, clamped to [0, 1]."""
    if dataset_mb <= 0:
        raise ValueError("dataset size must be positive")
    if cache_mb < 0:
        raise ValueError("cache size must be non-negative")
    # ``min(a, b)`` is written ``b if b < a else a`` in this module: the
    # builtin's own comparison (same ties and NaNs), without a call.
    ratio = cache_mb / dataset_mb
    return ratio if ratio < 1.0 else 1.0


def miss_ratio(cache_mb: float, dataset_mb: float) -> float:
    """Expected uniform-caching miss ratio ``1 - c/d``."""
    return 1.0 - hit_ratio(cache_mb, dataset_mb)


def remote_io_demand(
    loading_throughput_mbps: float, cache_mb: float, dataset_mb: float
) -> float:
    """Eq 2: remote IO demand ``b = f * (1 - c/d)`` in MB/s."""
    if loading_throughput_mbps < 0:
        raise ValueError("throughput must be non-negative")
    return loading_throughput_mbps * miss_ratio(cache_mb, dataset_mb)


def io_throughput(
    remote_io_mbps: float, cache_mb: float, dataset_mb: float
) -> float:
    """Eq 3 (IOPerf): loading throughput ``f = b / (1 - c/d)``.

    When the dataset is fully cached the miss ratio is zero and any
    non-negative remote-IO allocation supports unbounded loading; we return
    ``inf`` so the ``min`` with ``f*`` in Eq 4 resolves it.
    """
    if remote_io_mbps < 0:
        raise ValueError("remote IO allocation must be non-negative")
    misses = miss_ratio(cache_mb, dataset_mb)
    if misses <= _EPS:
        return math.inf
    return remote_io_mbps / misses


def silod_perf(
    ideal_throughput_mbps: float,
    remote_io_mbps: float,
    cache_mb: float,
    dataset_mb: float,
) -> float:
    """Eq 4: end-to-end throughput ``min(f*, b / (1 - c/d))`` in MB/s."""
    if ideal_throughput_mbps < 0:
        raise ValueError("ideal throughput must be non-negative")
    io_bound = io_throughput(remote_io_mbps, cache_mb, dataset_mb)
    return (
        io_bound if io_bound < ideal_throughput_mbps
        else ideal_throughput_mbps
    )


def achieved_rate(
    f_star_mbps: float, hit_ratio: float, io_grant_mbps: float
) -> float:
    """Eq 4 on a hit ratio: ``min(f*, grant / (1 - hit))`` in MB/s.

    The one achieved-rate formula: the fluid simulator's rates, the
    provenance log's ``est_mbps``, the report's timeline and Alluxio's
    fixed point all read it. A full hit has no remote demand and runs
    at ``f*`` whatever the grant. Equal to :func:`silod_perf` at
    ``hit_ratio = hit_ratio(c, d)``.
    """
    miss = 1.0 - hit_ratio
    if miss <= _EPS:
        return f_star_mbps
    io_bound = io_grant_mbps / miss
    return io_bound if io_bound < f_star_mbps else f_star_mbps


def cache_efficiency(ideal_throughput_mbps: float, dataset_mb: float) -> float:
    """Eq 5: remote IO (MB/s) saved per MB of cache at the ideal point.

    This is the negative derivative of Eq 2 at ``f = f*``: ``f*/d``. The
    paper reports it in MB/s per GB (Figure 6); this function returns
    MB/s per MB — multiply by 1024 for the paper's unit.
    """
    if dataset_mb <= 0:
        raise ValueError("dataset size must be positive")
    if ideal_throughput_mbps < 0:
        raise ValueError("ideal throughput must be non-negative")
    return ideal_throughput_mbps / dataset_mb


def dataset_cache_efficiency(
    ideal_throughputs_mbps: Iterable[float], dataset_mb: float
) -> float:
    """Dataset-level cache efficiency with sharing (§6).

    When several jobs train on the same dataset, one MB of cache saves
    remote IO for all of them, so the dataset's efficiency is the *sum* of
    the sharing jobs' efficiencies.
    """
    return sum(
        cache_efficiency(f_star, dataset_mb) for f_star in ideal_throughputs_mbps
    )


# ----------------------------------------------------------------------
# Heterogeneity: per-(job, GPU-generation) compute bounds (Gavel-style
# f*(job, gen), Narayanan et al. OSDI 2020, composed with Eq 4).
# ----------------------------------------------------------------------


def default_speedup_table(reference: str = "V100") -> Dict[str, float]:
    """Calibrated per-generation speedup factors, ``reference`` = 1.0.

    Jobs are profiled (``ideal_throughput_mbps``) on the reference
    generation; running the same job on generation *g* scales its
    compute bound ``f*`` by this table's factor. Calibration combines
    the paper's only cross-generation measurement with the hardware
    trend:

    * V100 -> A100 uses Table 2's *measured* ResNet-50 ratio
      (2930/1003 img/s, ~2.92x) — real speedups trail the 19.5/14.0
      TFLOPS ratio, so the measured anchor wins where it exists;
    * generations older than V100 scale by their dense-fp32 TFLOPS
      ratio to V100 (no measurement exists; K80/P100 predate Table 2);
    * generations newer than A100 scale *from the measured A100 anchor*
      by the dense-fp32 TFLOPS ratio to A100 — dense, not the
      with-sparsity headline, so H100 lands at ~10x V100 rather than
      an inflated ~36x (see ``cluster/hardware.py``).

    The factors are renormalised so ``table[reference] == 1.0``
    *exactly* (a float divided by itself), which makes the
    heterogeneous model collapse bit-identically to the homogeneous one
    on single-generation fleets (``x * 1.0 == x`` in IEEE arithmetic).
    """
    from repro.cluster.hardware import GPU_GENERATIONS, RESNET50_TABLE2

    if reference not in GPU_GENERATIONS:
        raise ValueError(f"unknown GPU generation {reference!r}")
    speeds = {p.gpu_setup: p.images_per_second for p in RESNET50_TABLE2}
    a100_measured = speeds["1xA100"] / speeds["1xV100"]
    v100 = GPU_GENERATIONS["V100"]
    a100 = GPU_GENERATIONS["A100"]
    raw: Dict[str, float] = {}
    for name, spec in GPU_GENERATIONS.items():
        if name == "V100":
            raw[name] = 1.0
        elif name == "A100":
            raw[name] = a100_measured
        elif spec.release_year < a100.release_year:
            raw[name] = spec.dense_tflops / v100.dense_tflops
        else:
            raw[name] = a100_measured * (
                spec.dense_tflops / a100.dense_tflops
            )
    anchor = raw[reference]
    return {name: value / anchor for name, value in raw.items()}
