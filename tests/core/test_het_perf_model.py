"""Heterogeneous Eq. 4: calibration and collapse.

The tentpole property is **collapse**: on a single-generation fleet the
heterogeneity-aware machinery must be *bit-identical* to the
homogeneous path. The speedup table guarantees it structurally — it is
renormalised so the reference generation's factor is exactly ``1.0``,
and ``x * 1.0 == x`` in IEEE-754 — and these tests pin the guarantee
with hypothesis.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import GPU_GENERATIONS, RESNET50_TABLE2
from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.estimator import (
    HetSiloDPerfEstimator,
    SiloDPerfEstimator,
)

GENERATIONS = sorted(GPU_GENERATIONS)


# ----------------------------------------------------------------------
# Speedup-table calibration.
# ----------------------------------------------------------------------


def test_reference_factor_is_exactly_one_for_every_reference():
    for reference in GENERATIONS:
        table = perf_model.default_speedup_table(reference=reference)
        assert table[reference] == 1.0  # bit-exact, not approx

def test_a100_factor_is_the_measured_table2_anchor():
    table = perf_model.default_speedup_table(reference="V100")
    speeds = {
        p.gpu_setup: p.images_per_second for p in RESNET50_TABLE2
    }
    measured = speeds["1xA100"] / speeds["1xV100"]
    assert table["A100"] == pytest.approx(measured)
    assert table["A100"] == pytest.approx(2930.0 / 1003.0)


def test_speedups_are_monotone_in_release_year():
    table = perf_model.default_speedup_table(reference="V100")
    ordered = sorted(
        GENERATIONS, key=lambda g: GPU_GENERATIONS[g].release_year
    )
    factors = [table[g] for g in ordered]
    assert factors == sorted(factors)
    assert table["K80"] < 1.0 < table["A100"] < table["H100"]


def test_h100_factor_uses_dense_not_sparsity_tflops():
    # 510 TFLOPS is the with-sparsity marketing figure; the runtime
    # speedup must scale from the dense 67 TFLOPS instead.
    table = perf_model.default_speedup_table(reference="V100")
    a100 = 2930.0 / 1003.0
    assert table["H100"] == pytest.approx(a100 * 67.0 / 19.5)
    assert table["H100"] < 12.0  # the sparsity figure would give ~76x


# ----------------------------------------------------------------------
# Collapse: single-generation fleet == homogeneous, bit for bit.
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    ideal=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    gpus=st.floats(min_value=0.0, max_value=64.0, allow_nan=False),
    reference=st.sampled_from(GENERATIONS),
)
def test_het_estimator_collapses_on_single_generation(
    ideal, gpus, reference
):
    """Het estimator with every job on the reference == base estimator."""
    job = Job(
        job_id="j",
        model="resnet50",
        dataset=Dataset(name="d", size_mb=1024.0, num_items=1000),
        num_gpus=4,
        ideal_throughput_mbps=ideal,
        total_work_mb=2048.0,
    )
    base = SiloDPerfEstimator()
    het = HetSiloDPerfEstimator(
        speedups=perf_model.default_speedup_table(
            reference=reference
        ),
        default_generation=reference,
    )
    # Unassigned -> default generation -> factor exactly 1.0.
    assert het.compute_bound(job, gpus) == base.compute_bound(
        job, gpus
    )
    assert het.compute_bound_batch([job], [gpus]) == [
        base.compute_bound(job, gpus)
    ]
    # Explicit assignment to the reference is the same collapse.
    het.assignments[job.job_id] = reference
    assert het.compute_bound(job, gpus) == base.compute_bound(
        job, gpus
    )


@settings(max_examples=50, deadline=None)
@given(
    ideal=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    gpus=st.floats(min_value=0.0, max_value=64.0, allow_nan=False),
    generation=st.sampled_from(GENERATIONS),
)
def test_het_estimator_batch_matches_scalar_off_reference(
    ideal, gpus, generation
):
    """Generation-scaled f* from the batch entry point is bit-identical
    to the per-job estimate and to ``f_star_by_generation``, even when
    the factor is not 1.0."""
    job = Job(
        job_id="j",
        model="resnet50",
        dataset=Dataset(name="d", size_mb=1024.0, num_items=1000),
        num_gpus=4,
        ideal_throughput_mbps=ideal,
        total_work_mb=2048.0,
    )
    het = HetSiloDPerfEstimator(speedups=perf_model.default_speedup_table())
    het.assignments[job.job_id] = generation
    scalar = het.compute_bound(job, gpus)
    batch = het.compute_bound_batch([job, job], [gpus, gpus])
    assert [x.hex() for x in batch] == [scalar.hex()] * 2
    assert het.f_star_by_generation(job)[generation].hex() == (
        het.compute_bound(job, job.num_gpus).hex()
    )


def test_f_star_by_generation_orders_slowest_first():
    het = HetSiloDPerfEstimator(
        speedups=perf_model.default_speedup_table()
    )
    job = Job(
        job_id="j",
        model="resnet50",
        dataset=Dataset(name="d", size_mb=1024.0, num_items=1000),
        num_gpus=1,
        ideal_throughput_mbps=100.0,
        total_work_mb=1024.0,
    )
    by_gen = het.f_star_by_generation(job)
    values = list(by_gen.values())
    assert values == sorted(values)
    assert by_gen["V100"] == 100.0
    assert set(by_gen) == set(GENERATIONS)


def test_f_star_by_generation_breaks_speedup_ties_by_name():
    """Slowest first, equal speedups in name order, each value exactly
    ``base * factor``: the order is sorted once, at construction."""
    speedups = {"V100": 1.0, "Z": 0.5, "B": 2.0, "A": 2.0, "K": 0.5}
    het = HetSiloDPerfEstimator(speedups=speedups)
    job = Job(
        job_id="j",
        model="resnet50",
        dataset=Dataset(name="d", size_mb=1024.0, num_items=1000),
        num_gpus=3,
        ideal_throughput_mbps=123.4,
        total_work_mb=1024.0,
    )
    by_gen = het.f_star_by_generation(job)
    assert list(by_gen) == ["K", "Z", "V100", "A", "B"]
    for gen, factor in speedups.items():
        assert by_gen[gen] == 123.4 * factor


def test_speedup_table_is_read_only():
    """The cached generation order cannot go stale: item assignment on
    ``speedups`` raises, and the table keeps its values."""
    het = HetSiloDPerfEstimator(
        speedups=perf_model.default_speedup_table()
    )
    with pytest.raises(TypeError):
        het.speedups["V100"] = 2.0
    assert het.speedups["V100"] == 1.0
