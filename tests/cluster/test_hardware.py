"""Hardware catalog and cluster construction."""

import pytest

from repro import units
from repro.cluster import hardware


def test_gpu_trend_motivation():
    # Figure 1's headline: GPU compute grew ~125x, egress only ~12x.
    gpu_growth, egress_growth = hardware.compute_growth_vs_egress_growth()
    assert gpu_growth == pytest.approx(125.0, rel=0.05)
    assert egress_growth == pytest.approx(12.0, rel=0.05)
    assert gpu_growth / egress_growth > 10


def test_gpu_trend_series_covers_all_years():
    rows = hardware.gpu_trend_series()
    years = [r["year"] for r in rows]
    assert years == sorted(years)
    assert {r["gpu"] for r in rows if r["gpu"]} == {
        "K80",
        "P100",
        "V100",
        "A100",
        "H100",
    }


def test_table2_resnet50_profiles():
    by_setup = {p.gpu_setup: p for p in hardware.RESNET50_TABLE2}
    assert by_setup["1xV100"].io_mb_per_second == 114.0
    assert by_setup["8xA100"].io_mb_per_second == 1923.0
    # IO demand scales with images/s at a constant bytes-per-image.
    v100 = by_setup["1xV100"]
    a100_8 = by_setup["8xA100"]
    bytes_per_image_v100 = v100.io_mb_per_second / v100.images_per_second
    bytes_per_image_a100 = a100_8.io_mb_per_second / a100_8.images_per_second
    assert bytes_per_image_v100 == pytest.approx(bytes_per_image_a100, rel=0.01)


def test_cluster_builders():
    micro = hardware.microbenchmark_cluster()
    assert micro.total_gpus == 8
    assert micro.total_cache_mb == pytest.approx(units.tb(2.0))
    assert micro.remote_io_mbps == pytest.approx(200.0)

    mid = hardware.cluster_96gpu()
    assert mid.total_gpus == 96
    assert mid.remote_io_mbps == pytest.approx(units.gbps(8.0))

    big = hardware.cluster_400gpu()
    assert big.total_gpus == 400
    assert big.remote_io_mbps == pytest.approx(units.gbps(32.0))


def test_table5_scaling_is_monotone():
    limits = hardware.REMOTE_IO_LIMITS_TABLE5
    assert (
        limits["8xV100"]
        < limits["96xK80"]
        < limits["400xV100"]
        < limits["production"]
    )


def test_server_defaults():
    cluster = hardware.Cluster.build(2, 4, units.tb(1.0), 200.0)
    assert len(cluster.servers) == 2
    assert all(s.num_gpus == 4 for s in cluster.servers)

# ----------------------------------------------------------------------
# Mixed-generation fleets (heterogeneity-aware scheduling).
# ----------------------------------------------------------------------


def test_h100_records_dense_alongside_sparsity_tflops():
    h100 = hardware.GPU_GENERATIONS["H100"]
    assert h100.fp32_tflops == 510.0  # Figure 1's with-sparsity point
    assert h100.dense_fp32_tflops == 67.0
    assert h100.dense_tflops == 67.0
    # Every other generation's headline number already is dense fp32.
    for name, spec in hardware.GPU_GENERATIONS.items():
        if name != "H100":
            assert spec.dense_tflops == spec.fp32_tflops


def test_build_mixed_pools_and_reference():
    cluster = hardware.Cluster.build_mixed(
        [("V100", 2), ("A100", 1)],
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=200.0,
    )
    assert cluster.total_gpus == 12
    assert len(cluster.gpus_by_generation) == 2
    assert cluster.gpus_by_generation == {"V100": 8, "A100": 4}
    assert cluster.generations == ["V100", "A100"]  # release order
    # Majority generation wins the reference slot.
    assert cluster.gpu.name == "V100"
    assert [s.gpu.name for s in cluster.servers] == [
        "V100",
        "V100",
        "A100",
    ]


def test_build_mixed_reference_override_and_tie_break():
    tied = hardware.Cluster.build_mixed(
        [("A100", 1), ("K80", 1)],
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=200.0,
    )
    # Equal GPU counts: the earliest release year wins the tie.
    assert tied.gpu.name == "K80"
    forced = hardware.Cluster.build_mixed(
        [("A100", 1), ("K80", 1)],
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=200.0,
        reference="A100",
    )
    assert forced.gpu.name == "A100"


def test_build_mixed_single_entry_collapses_to_build():
    mixed = hardware.Cluster.build_mixed(
        [("V100", 2)],
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=200.0,
    )
    plain = hardware.Cluster.build(2, 4, units.gb(25), 200.0)
    assert len(mixed.gpus_by_generation) == 1
    assert mixed.gpus_by_generation == plain.gpus_by_generation
    assert mixed.total_cache_mb == plain.total_cache_mb
    assert mixed.gpu.name == plain.gpu.name


def test_build_mixed_rejects_bad_specs():
    with pytest.raises(ValueError):
        hardware.Cluster.build_mixed(
            [], gpus_per_server=4,
            cache_per_server_mb=1.0, remote_io_mbps=1.0,
        )
    with pytest.raises(ValueError):
        hardware.Cluster.build_mixed(
            [("TPUv4", 1)], gpus_per_server=4,
            cache_per_server_mb=1.0, remote_io_mbps=1.0,
        )
    with pytest.raises(ValueError):
        hardware.Cluster.build_mixed(
            [("V100", 0)], gpus_per_server=4,
            cache_per_server_mb=1.0, remote_io_mbps=1.0,
        )


def test_parse_gpu_mix():
    assert hardware.parse_gpu_mix("V100:2,A100:1") == [
        ("V100", 2),
        ("A100", 1),
    ]
    assert hardware.parse_gpu_mix(" K80:12 , P100:8 ") == [
        ("K80", 12),
        ("P100", 8),
    ]
    for bad in ("V100", "V100:x", "TPUv4:2", "V100:0", ""):
        with pytest.raises(ValueError):
            hardware.parse_gpu_mix(bad)
