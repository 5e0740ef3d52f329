"""The peer-read fabric model (Figure 3)."""

import pytest

from repro.cluster import storage


def test_peer_read_scales_nearly_linearly():
    # Figure 3: with a datacenter fabric, 50 servers each demanding
    # 1923 MB/s (ResNet-50 on 8xA100) still load at full demand.
    single = storage.peer_read_throughput(1, 1923.0)
    fifty = storage.peer_read_throughput(50, 1923.0)
    assert single == pytest.approx(1923.0)
    assert fifty == pytest.approx(50 * 1923.0)


def test_peer_read_bottlenecked_by_slow_fabric():
    # A 1 Gbps fabric (125 MB/s) cannot carry the peer fraction.
    agg = storage.peer_read_throughput(10, 1923.0, fabric_mbps=125.0)
    assert agg < 10 * 1923.0
    assert agg == pytest.approx(10 * 125.0 / 0.9)


def test_local_read_capped_by_disk():
    assert storage.local_read_throughput(4, 3000.0, local_disk_mbps=2000.0) == (
        pytest.approx(8000.0)
    )


def test_scaling_series_shape():
    rows = storage.peer_read_scaling_series([1, 10, 50])
    assert [r["servers"] for r in rows] == [1, 10, 50]
    for row in rows:
        # Peer reads never exceed the no-bottleneck linear line.
        assert row["peer_read_gbps"] <= row["linear_gbps"] + 1e-9


def test_invalid_server_counts():
    with pytest.raises(ValueError):
        storage.peer_read_throughput(0, 100.0)
    with pytest.raises(ValueError):
        storage.local_read_throughput(0, 100.0)
