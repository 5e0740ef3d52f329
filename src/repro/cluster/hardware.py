"""GPU generations, servers, and cluster topology.

This module records the hardware facts the paper relies on:

* Figure 1's trend of GPU single-precision TFLOPS vs. cloud-storage egress
  bandwidth limits (the motivation: compute grew 125x in seven years while
  egress limits grew 12x).
* Table 2's measured training speed and IO demand of ResNet-50 per GPU type.
* The server/cluster model used by both simulators: servers contribute GPUs
  and local-disk cache capacity to a shared pool reachable over a storage
  fabric (Figure 3 shows peer reads run at near-local speed).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro import units


@dataclasses.dataclass(frozen=True)
class GpuSpec:
    """A GPU generation.

    ``fp32_tflops`` is the Figure 1 *plotted* throughput — NVIDIA's
    headline number for the part, which for H100 is the with-sparsity
    TF32 figure (~500 TFLOPS), not dense fp32. ``dense_fp32_tflops``
    records the dense single-precision value when it differs; speedup
    modelling (``repro.core.perf_model.default_speedup_table``) always
    uses the dense value so generations are compared like for like.
    ``release_year`` places the part on the trend line.
    """

    name: str
    fp32_tflops: float
    release_year: int
    dense_fp32_tflops: Optional[float] = None

    @property
    def dense_tflops(self) -> float:
        """Dense fp32 TFLOPS — falls back to the plotted value."""
        if self.dense_fp32_tflops is not None:
            return self.dense_fp32_tflops
        return self.fp32_tflops


#: Figure 1's GPU generations. ``fp32_tflops`` follows the numbers the
#: figure plots: published single-precision throughput for K80-A100, and
#: for H100 the with-sparsity TF32 headline (~500 TFLOPS) — the figure's
#: point is the *marketed* compute trend vs. egress limits. H100's dense
#: fp32 value (67 TFLOPS) is recorded alongside so the speedup model
#: does not inherit the sparsity inflation.
GPU_GENERATIONS: Dict[str, GpuSpec] = {
    "K80": GpuSpec("K80", 4.1, 2015),
    "P100": GpuSpec("P100", 9.3, 2016),
    "V100": GpuSpec("V100", 14.0, 2017),
    "A100": GpuSpec("A100", 19.5, 2020),
    # 510 = with sparsity, per Fig 1's ~500 point; 67 = dense fp32.
    "H100": GpuSpec("H100", 510.0, 2022, dense_fp32_tflops=67.0),
}


#: Figure 1's Azure storage-account egress bandwidth limits (Gbps) by year.
#: The paper reports a 12x increase across the same window, ending at
#: 120 Gbps ("the claimed upper-bound" used in Figure 2).
EGRESS_LIMIT_GBPS_BY_YEAR: Dict[int, float] = {
    2015: 10.0,
    2016: 15.0,
    2017: 20.0,
    2018: 30.0,
    2019: 50.0,
    2020: 60.0,
    2021: 100.0,
    2022: 120.0,
}


@dataclasses.dataclass(frozen=True)
class ResNet50Profile:
    """Table 2: ResNet-50 on ImageNet, mixed precision, per GPU setup."""

    gpu_setup: str
    images_per_second: float
    io_mb_per_second: float


#: Table 2 of the paper.
RESNET50_TABLE2: List[ResNet50Profile] = [
    ResNet50Profile("1xV100", 1003.0, 114.0),
    ResNet50Profile("1xA100", 2930.0, 333.0),
    ResNet50Profile("8xV100", 7813.0, 888.0),
    ResNet50Profile("8xA100", 16925.0, 1923.0),
    ResNet50Profile("1xGaudi2", 5325.0, 614.0),
]


#: Azure's local SSD available per V100 GPU (§7: "368GB per V100 in
#: Azure"); the 96- and 400-GPU clusters provision this much cache per GPU.
LOCAL_CACHE_MB_PER_V100 = units.gb(368.0)

#: Local-disk read bandwidth (MB/s) serving cache hits in the item-level
#: models (the minibatch emulator and the curriculum simulation); Figure
#: 3's premise is that hits are effectively never the bottleneck.
LOCAL_READ_MBPS = 2000.0


@dataclasses.dataclass
class Server:
    """A GPU server contributing compute and cache to the cluster.

    Attributes
    ----------
    server_id:
        Index within the cluster.
    num_gpus:
        GPUs on this server.
    local_cache_mb:
        Local disk (SSD) capacity contributed to the distributed cache pool.
    local_disk_bandwidth_mbps:
        Sequential read throughput of the local disks.
    fabric_bandwidth_mbps:
        Per-server NIC bandwidth on the storage fabric used for peer reads.
    """

    server_id: int
    num_gpus: int
    local_cache_mb: float
    local_disk_bandwidth_mbps: float = 2000.0
    fabric_bandwidth_mbps: float = 12500.0  # 100 Gbps storage fabric
    #: GPU generation installed on this server (mixed fleets vary it).
    gpu: GpuSpec = GPU_GENERATIONS["V100"]


@dataclasses.dataclass
class Cluster:
    """A GPU cluster: servers plus a remote-IO egress limit.

    The two simulators treat the cluster's aggregate cache as one pool
    (Figure 3 justifies this: the storage fabric makes peer reads as fast as
    local reads), so most code only needs :meth:`total_gpus` and
    :meth:`total_cache_mb`. Mixed-generation fleets (:meth:`build_mixed`)
    additionally expose :meth:`gpus_by_generation` so heterogeneity-aware
    policies can treat each generation as a GPU pool; ``gpu`` then names
    the *reference* generation (the one jobs are profiled on, speedup 1.0).
    """

    servers: List[Server]
    remote_io_mbps: float
    gpu: GpuSpec = GPU_GENERATIONS["V100"]

    @classmethod
    def build(
        cls,
        num_servers: int,
        gpus_per_server: int,
        cache_per_server_mb: float,
        remote_io_mbps: float,
        gpu: GpuSpec = GPU_GENERATIONS["V100"],
    ) -> "Cluster":
        """Construct a homogeneous cluster."""
        servers = [
            Server(
                server_id=i,
                num_gpus=gpus_per_server,
                local_cache_mb=cache_per_server_mb,
                gpu=gpu,
            )
            for i in range(num_servers)
        ]
        return cls(servers=servers, remote_io_mbps=remote_io_mbps, gpu=gpu)

    @classmethod
    def build_mixed(
        cls,
        mix: Sequence[Tuple[str, int]],
        gpus_per_server: int,
        cache_per_server_mb: float,
        remote_io_mbps: float,
        reference: Optional[str] = None,
    ) -> "Cluster":
        """Construct a mixed-generation cluster.

        ``mix`` is a sequence of ``(generation_name, num_servers)``
        pairs (see :func:`parse_gpu_mix`). ``reference`` picks the
        generation recorded as ``cluster.gpu`` — the speedup-1.0 anchor;
        by default the generation contributing the most GPUs wins, ties
        broken by earliest release year, so a single-entry mix collapses
        exactly to :meth:`build` of that generation.
        """
        if not mix:
            raise ValueError("gpu mix must name at least one generation")
        servers: List[Server] = []
        counts: Dict[str, int] = {}
        for name, num_servers in mix:
            if name not in GPU_GENERATIONS:
                raise ValueError(f"unknown GPU generation {name!r}")
            if num_servers < 1:
                raise ValueError(f"need >= 1 server of {name!r}")
            counts[name] = counts.get(name, 0) + num_servers * gpus_per_server
            for _ in range(num_servers):
                servers.append(
                    Server(
                        server_id=len(servers),
                        num_gpus=gpus_per_server,
                        local_cache_mb=cache_per_server_mb,
                        gpu=GPU_GENERATIONS[name],
                    )
                )
        if reference is None:
            reference = max(
                counts,
                key=lambda n: (
                    counts[n],
                    -GPU_GENERATIONS[n].release_year,
                ),
            )
        if reference not in GPU_GENERATIONS:
            raise ValueError(f"unknown GPU generation {reference!r}")
        return cls(
            servers=servers,
            remote_io_mbps=remote_io_mbps,
            gpu=GPU_GENERATIONS[reference],
        )

    @property
    def total_gpus(self) -> int:
        """Number of GPUs across all servers."""
        return sum(s.num_gpus for s in self.servers)

    @property
    def total_cache_mb(self) -> float:
        """Aggregate distributed-cache capacity in MB."""
        return sum(s.local_cache_mb for s in self.servers)

    @property
    def gpus_by_generation(self) -> Dict[str, int]:
        """GPU count per generation, keyed by name, in release order."""
        counts: Dict[str, int] = {}
        for server in self.servers:
            counts[server.gpu.name] = (
                counts.get(server.gpu.name, 0) + server.num_gpus
            )
        return {
            name: counts[name]
            for name in sorted(
                counts, key=lambda n: GPU_GENERATIONS[n].release_year
            )
        }

    @property
    def generations(self) -> List[str]:
        """Generation names present, oldest first."""
        return list(self.gpus_by_generation)


def parse_gpu_mix(spec: str) -> List[Tuple[str, int]]:
    """Parse a ``--gpu-mix`` spec like ``"V100:2,A100:1"``.

    Each entry is ``GENERATION:NUM_SERVERS``; the result feeds
    :meth:`Cluster.build_mixed`. Raises ``ValueError`` on unknown
    generations, malformed entries, or non-positive counts.
    """
    mix: List[Tuple[str, int]] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, sep, count = entry.partition(":")
        name = name.strip()
        if not sep:
            raise ValueError(
                f"bad --gpu-mix entry {entry!r} (want GEN:NUM_SERVERS)"
            )
        if name not in GPU_GENERATIONS:
            raise ValueError(f"unknown GPU generation {name!r}")
        try:
            num = int(count)
        except ValueError:
            raise ValueError(
                f"bad server count {count!r} in --gpu-mix entry {entry!r}"
            )
        if num < 1:
            raise ValueError(f"need >= 1 server of {name!r}")
        mix.append((name, num))
    if not mix:
        raise ValueError("gpu mix must name at least one generation")
    return mix


#: Table 5: remote IO limits used in the paper's evaluation, scaled down
#: from the ~1900-V100 production cluster's 120 Gbps.
REMOTE_IO_LIMITS_TABLE5: Dict[str, float] = {
    "8xV100": units.gbps(1.6),
    "96xK80": units.gbps(8.0),
    "400xV100": units.gbps(32.0),
    "production": units.gbps(120.0),
}


def microbenchmark_cluster() -> Cluster:
    """The 8-V100 micro-benchmark cluster (§7.1.1).

    Two 4-V100 VMs, each with 1 TB SSD cache, 1.6 Gbps (200 MB/s) remote IO.
    """
    return Cluster.build(
        num_servers=2,
        gpus_per_server=4,
        cache_per_server_mb=units.tb(1.0),
        remote_io_mbps=REMOTE_IO_LIMITS_TABLE5["8xV100"],
    )


def cluster_96gpu() -> Cluster:
    """The 96-GPU cluster (§7.1.2): 12 8-GPU servers, 8 Gbps remote IO."""
    return Cluster.build(
        num_servers=12,
        gpus_per_server=8,
        cache_per_server_mb=8 * LOCAL_CACHE_MB_PER_V100,
        remote_io_mbps=REMOTE_IO_LIMITS_TABLE5["96xK80"],
    )


def cluster_400gpu() -> Cluster:
    """The 400-GPU simulated cluster (§7.2): 50 8-GPU servers, 32 Gbps."""
    return Cluster.build(
        num_servers=50,
        gpus_per_server=8,
        cache_per_server_mb=8 * LOCAL_CACHE_MB_PER_V100,
        remote_io_mbps=REMOTE_IO_LIMITS_TABLE5["400xV100"],
    )


def gpu_trend_series() -> List[dict]:
    """Figure 1 as a data series: year, TFLOPS (if a GPU shipped), egress.

    Plots ``fp32_tflops`` — the headline value per generation, which for
    H100 is the *with-sparsity* ~500 TFLOPS point Figure 1 shows, not
    the dense fp32 value (see :data:`GPU_GENERATIONS`).
    """
    rows = []
    by_year = {g.release_year: g for g in GPU_GENERATIONS.values()}
    for year in sorted(EGRESS_LIMIT_GBPS_BY_YEAR):
        gpu = by_year.get(year)
        rows.append(
            {
                "year": year,
                "gpu": gpu.name if gpu else None,
                "fp32_tflops": gpu.fp32_tflops if gpu else None,
                "egress_gbps": EGRESS_LIMIT_GBPS_BY_YEAR[year],
            }
        )
    return rows


def compute_growth_vs_egress_growth() -> tuple:
    """Return (gpu_speedup, egress_growth) across Figure 1's window.

    The paper quotes 125x vs 12x. The GPU growth uses the *plotted*
    (headline) TFLOPS values — so the H100 endpoint is the with-sparsity
    510, matching the figure; the dense-fp32 growth would be ~16x.
    """
    specs = sorted(GPU_GENERATIONS.values(), key=lambda g: g.release_year)
    gpu_growth = specs[-1].fp32_tflops / specs[0].fp32_tflops
    years: Sequence[int] = sorted(EGRESS_LIMIT_GBPS_BY_YEAR)
    egress_growth = (
        EGRESS_LIMIT_GBPS_BY_YEAR[years[-1]] / EGRESS_LIMIT_GBPS_BY_YEAR[years[0]]
    )
    return gpu_growth, egress_growth
