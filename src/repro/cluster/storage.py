"""The intra-cluster storage fabric (Figure 3).

:func:`peer_read_throughput` is the Figure 3 experiment's model: when a
dataset is spread evenly over ``n`` servers' local caches, a job on one
server reads ``1/n`` of its data locally and ``(n-1)/n`` from peers over
the storage fabric. With a datacenter-grade fabric this scales almost
linearly, which justifies treating the distributed cache as one pool.
:func:`local_read_throughput` is the no-peer baseline and
:func:`peer_read_scaling_series` tabulates both for the figure.
"""

from __future__ import annotations

from typing import List

from repro import units


def peer_read_throughput(
    num_servers: int,
    io_demand_per_server_mbps: float,
    local_disk_mbps: float = 2000.0,
    fabric_mbps: float = 12500.0,
) -> float:
    """Aggregate data-loading throughput of ``num_servers`` servers (Fig 3).

    Every server runs a job demanding ``io_demand_per_server_mbps`` (the
    paper uses 1923 MB/s: ResNet-50 on 8 A100s). Datasets are spread evenly
    over all servers' caches, so each job reads a ``1/n`` fraction from the
    local disk and ``(n-1)/n`` from peers.

    Per server, three resources can bottleneck:

    * its own disk serving local reads *and* peer requests from the other
      ``n-1`` servers (each server's disk serves ``1/n`` of every job's
      demand, i.e. the full per-server demand in aggregate);
    * its NIC, carrying ``(n-1)/n`` of its own demand in and the same out;
    * the demand itself (no point loading faster than the job consumes).

    Returns the aggregate achieved throughput in MB/s.
    """
    if num_servers < 1:
        raise ValueError("need at least one server")
    n = num_servers
    demand = io_demand_per_server_mbps
    # Each disk serves: its job's local fraction + the peer fraction of all
    # other jobs that maps onto it = demand/n + (n-1) * demand/n = demand.
    disk_limited = local_disk_mbps
    # NIC carries the peer fraction of this server's own reads.
    peer_fraction = (n - 1) / n
    nic_limited = fabric_mbps / peer_fraction if peer_fraction > 0 else float("inf")
    per_server = min(demand, disk_limited, nic_limited)
    return per_server * n


def local_read_throughput(
    num_servers: int,
    io_demand_per_server_mbps: float,
    local_disk_mbps: float = 2000.0,
) -> float:
    """Aggregate throughput if every job read only from its local disk."""
    if num_servers < 1:
        raise ValueError("need at least one server")
    per_server = min(io_demand_per_server_mbps, local_disk_mbps)
    return per_server * num_servers


def peer_read_scaling_series(
    server_counts: List[int],
    io_demand_per_server_mbps: float = 1923.0,
    local_disk_mbps: float = 2000.0,
    fabric_mbps: float = 12500.0,
) -> List[dict]:
    """Figure 3 as a data series: linear / local / peer throughput in GB/s."""
    rows = []
    for n in server_counts:
        rows.append(
            {
                "servers": n,
                "linear_gbps": units.mb_to_gb(
                    n * io_demand_per_server_mbps
                ),
                "local_read_gbps": units.mb_to_gb(
                    local_read_throughput(
                        n, io_demand_per_server_mbps, local_disk_mbps
                    )
                ),
                "peer_read_gbps": units.mb_to_gb(
                    peer_read_throughput(
                        n,
                        io_demand_per_server_mbps,
                        local_disk_mbps,
                        fabric_mbps,
                    )
                ),
            }
        )
    return rows
