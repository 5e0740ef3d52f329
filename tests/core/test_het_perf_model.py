"""Heterogeneous Eq. 4: calibration, collapse, and backend identity.

The tentpole property is **collapse**: on a single-generation fleet the
heterogeneity-aware machinery must be *bit-identical* to the
homogeneous path. The speedup table guarantees it structurally — it is
renormalised so the reference generation's factor is exactly ``1.0``,
and ``x * 1.0 == x`` in IEEE-754 — and these tests pin the guarantee
with hypothesis, under the vectorized and the pure-Python
(``REPRO_NO_NUMPY=1``) backends alike.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import (
    BACKEND_FALLBACK,
    BACKEND_VECTORIZED,
    using_backend,
)
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import GPU_GENERATIONS, RESNET50_TABLE2
from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.estimator import (
    HetSiloDPerfEstimator,
    SiloDPerfEstimator,
)

GENERATIONS = sorted(GPU_GENERATIONS)

finite_rates = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
positive_sizes = st.floats(
    min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False
)


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


def test_het_f_star_rejects_unknown_generation():
    with pytest.raises(ValueError):
        perf_model.het_f_star(100.0, "TPUv4")


# ----------------------------------------------------------------------
# Collapse: single-generation fleet == homogeneous, bit for bit.
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    ideal=finite_rates,
    remote_io=finite_rates,
    cache=finite_rates,
    dataset=positive_sizes,
    reference=st.sampled_from(GENERATIONS),
)
def test_het_eq4_collapses_bit_identically(
    ideal, remote_io, cache, dataset, reference
):
    """het_silod_perf on the reference generation IS silod_perf."""
    homogeneous = perf_model.silod_perf(ideal, remote_io, cache, dataset)
    het = perf_model.het_silod_perf(
        ideal,
        remote_io,
        cache,
        dataset,
        generation=reference,
        reference=reference,
    )
    assert math.isnan(het) if math.isnan(homogeneous) else het == homogeneous
    assert perf_model.het_f_star(
        ideal, reference, reference=reference
    ) == ideal


@settings(max_examples=50, deadline=None)
@given(
    ideal=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    gpus=st.floats(min_value=0.0, max_value=64.0, allow_nan=False),
    reference=st.sampled_from(GENERATIONS),
    backend=st.sampled_from([BACKEND_VECTORIZED, BACKEND_FALLBACK]),
)
def test_het_estimator_collapses_on_single_generation(
    ideal, gpus, reference, backend
):
    """Het estimator with every job on the reference == base estimator,
    under both backends (the REPRO_NO_NUMPY=1 contract)."""
    job = Job(
        job_id="j",
        model="resnet50",
        dataset=Dataset(name="d", size_mb=1024.0, num_items=1000),
        num_gpus=4,
        ideal_throughput_mbps=ideal,
        total_work_mb=2048.0,
    )
    with using_backend(backend):
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
def test_het_estimator_is_backend_identical_off_reference(
    ideal, gpus, generation
):
    """Generation-scaled f* is bit-identical across backends even when
    the factor is not 1.0 (the scalar loop is forced either way)."""
    job = Job(
        job_id="j",
        model="resnet50",
        dataset=Dataset(name="d", size_mb=1024.0, num_items=1000),
        num_gpus=4,
        ideal_throughput_mbps=ideal,
        total_work_mb=2048.0,
    )
    results = {}
    for backend in (BACKEND_VECTORIZED, BACKEND_FALLBACK):
        with using_backend(backend):
            het = HetSiloDPerfEstimator(
                speedups=perf_model.default_speedup_table()
            )
            het.assignments[job.job_id] = generation
            results[backend] = (
                het.compute_bound(job, gpus),
                het.compute_bound_batch([job, job], [gpus, gpus]),
                het.f_star_by_generation(job),
            )
    vec = results[BACKEND_VECTORIZED]
    fb = results[BACKEND_FALLBACK]
    assert [x.hex() for x in _flatten(vec)] == [
        x.hex() for x in _flatten(fb)
    ]


def _flatten(value):
    if isinstance(value, dict):
        out = []
        for key in sorted(value):
            out.extend(_flatten(value[key]))
        return out
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            out.extend(_flatten(item))
        return out
    return [float(value)]


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
