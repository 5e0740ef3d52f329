"""Property-based vectorized-vs-fallback equivalence (the perf contract).

``docs/PERFORMANCE.md`` promises the numpy paths are *bit-identical* to
the pure-Python fallback — not merely close. These tests enforce that
with hypothesis: every seeded random trace must produce byte-for-byte
equal scheduling decisions, event sequences, and result records under
both backends, and the numeric primitives the argument rests on
(``np.floor_divide`` vs ``//``, elementwise min/mul) must agree exactly.
"""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import units
from repro.backend import (
    BACKEND_FALLBACK,
    BACKEND_VECTORIZED,
    using_backend,
)
from repro.cache.residency import ArrayResidencyStore, DictResidencyStore
from repro.cluster.hardware import Cluster
from repro.core.estimator import SiloDPerfEstimator
from repro.obs import Tracer
from repro.sim.runner import run_experiment
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)

pytestmark = pytest.mark.perf

np = pytest.importorskip("numpy")

from repro.backend import numpy_enabled  # noqa: E402

#: Tests that build vectorized objects in-process (rather than through
#: a subprocess with its own environment) cannot run when REPRO_NO_NUMPY
#: forces the fallback — the constructors refuse, by design.
needs_vectorized = pytest.mark.skipif(
    not numpy_enabled(),
    reason="REPRO_NO_NUMPY forces the pure-Python fallback",
)


def bitwise(x):
    """A hashable, bit-exact view of any result structure.

    Floats are rendered with ``hex()`` so ``0.1 + 0.2`` and ``0.3``
    differ; NaN (the fairness ratio of an empty sample window) compares
    equal to itself, which ``==`` on raw floats would not.
    """
    if dataclasses.is_dataclass(x):
        return tuple(
            (f.name, bitwise(getattr(x, f.name)))
            for f in dataclasses.fields(x)
        )
    if isinstance(x, dict):
        return tuple(sorted((k, bitwise(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(bitwise(v) for v in x)
    if isinstance(x, float):
        return "nan" if math.isnan(x) else x.hex()
    return x


def tiny_trace(seed: int, num_jobs: int, gpus: int):
    cfg = TraceConfig(
        num_jobs=num_jobs,
        seed=seed,
        duration_median_s=3600.0,
        duration_sigma=1.2,
    )
    cfg.mean_interarrival_s = arrival_rate_for_load(cfg, gpus, load=1.5)
    return generate_trace(cfg)


def tiny_cluster(gpus: int) -> Cluster:
    return Cluster.build(
        num_servers=max(1, gpus // 4),
        gpus_per_server=4,
        cache_per_server_mb=4 * units.gb(92.0),
        remote_io_mbps=units.gbps(0.08 * gpus),
    )


#: Event fields measuring *wall-clock* (scheduler latency) rather than
#: simulated state — nondeterministic across any two runs, so excluded
#: from the bit-equivalence comparison.
WALL_CLOCK_FIELDS = frozenset({"latency_ms"})


def comparable(event) -> dict:
    return {
        k: v
        for k, v in event.to_dict().items()
        if k not in WALL_CLOCK_FIELDS
    }


def run_both(simulator: str, seed: int, num_jobs: int, gpus: int,
             **sim_kwargs):
    outcomes = {}
    for backend in (BACKEND_VECTORIZED, BACKEND_FALLBACK):
        with using_backend(backend):
            tracer = Tracer()
            result = run_experiment(
                tiny_cluster(gpus),
                "fifo",
                "silod",
                tiny_trace(seed, num_jobs, gpus),
                simulator=simulator,
                tracer=tracer,
                **sim_kwargs,
            )
            events = tuple(bitwise(comparable(e)) for e in tracer.events)
            outcomes[backend] = (bitwise(result), events)
    return outcomes


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    num_jobs=st.integers(8, 24),
    gpus=st.sampled_from([8, 16]),
)
def test_fluid_runs_are_bit_identical(seed, num_jobs, gpus):
    outcomes = run_both(
        "fluid", seed, num_jobs, gpus,
        reschedule_interval_s=1800.0, sample_interval_s=3600.0,
    )
    vec, fb = outcomes[BACKEND_VECTORIZED], outcomes[BACKEND_FALLBACK]
    assert vec[0] == fb[0], "result records / timeline diverged"
    assert vec[1] == fb[1], "event sequences diverged"
    assert len(vec[1]) > 0


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), num_jobs=st.integers(8, 12))
def test_minibatch_runs_are_bit_identical(seed, num_jobs):
    outcomes = run_both(
        "minibatch", seed, num_jobs, 8,
        decision_interval_s=600.0, sample_interval_s=3600.0,
        item_size_mb=64.0,
    )
    vec, fb = outcomes[BACKEND_VECTORIZED], outcomes[BACKEND_FALLBACK]
    assert vec[0] == fb[0], "result records / timeline diverged"
    assert vec[1] == fb[1], "event sequences diverged"


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    num_jobs=st.integers(8, 64),
    grants=st.data(),
)
def test_estimator_batch_matches_scalar_loop(seed, num_jobs, grants):
    jobs = tiny_trace(seed, num_jobs, 16)
    gpus = [
        grants.draw(st.floats(0.0, 64.0, allow_nan=False))
        for _ in jobs
    ]
    est = SiloDPerfEstimator()
    with using_backend(BACKEND_VECTORIZED):
        vec = est.compute_bound_batch(jobs, gpus)
    with using_backend(BACKEND_FALLBACK):
        fb = est.compute_bound_batch(jobs, gpus)
    scalar = [est.compute_bound(j, g) for j, g in zip(jobs, gpus)]
    assert bitwise(vec) == bitwise(fb) == bitwise(scalar)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(allow_nan=False, allow_infinity=False),
    b=st.floats(min_value=1e-9, max_value=1e12),
)
def test_floor_divide_matches_python(a, b):
    # The next-epoch-boundary sweep relies on np.floor_divide being the
    # same operation as CPython's float ``//``.
    ours = float(np.floor_divide(a, b))
    theirs = a // b
    assert bitwise(ours) == bitwise(theirs)


RESIDENCY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ensure"), st.integers(0, 7),
                  st.floats(1.0, 1e6, allow_nan=False)),
        st.tuples(st.just("set_resident"), st.integers(0, 7),
                  st.floats(0.0, 1e6, allow_nan=False)),
        st.tuples(st.just("set_target"), st.integers(0, 7),
                  st.floats(0.0, 1e6, allow_nan=False)),
        st.tuples(st.just("pop"), st.integers(0, 7), st.just(0.0)),
    ),
    min_size=1,
    max_size=40,
)


@needs_vectorized
@settings(max_examples=60, deadline=None)
@given(ops=RESIDENCY_OPS)
def test_residency_stores_stay_in_lockstep(ops):
    # The array-backed store must be observationally identical to the
    # dict reference under any interleaving of mutations.
    dict_store, array_store = DictResidencyStore(), ArrayResidencyStore()
    for op, idx, value in ops:
        key = f"k{idx}"
        for store in (dict_store, array_store):
            if op == "ensure":
                store.ensure(key, value)
            elif op == "set_resident" and key in store:
                store.set_resident_mb(key, value)
            elif op == "set_target" and key in store:
                store.set_target_mb(key, value)
            elif op == "pop":
                store.pop(key)
    assert dict_store.keys() == array_store.keys()
    assert len(dict_store) == len(array_store)
    for key in dict_store.keys():
        assert bitwise(dict_store.snapshot(key)) == bitwise(
            array_store.snapshot(key)
        )
    assert bitwise(dict_store.total_resident_mb()) == bitwise(
        array_store.total_resident_mb()
    )
    assert dict_store.stale_first_keys() == array_store.stale_first_keys()
    assert bitwise(dict_store.reclaim_candidates()) == bitwise(
        array_store.reclaim_candidates()
    )
    # The candidates are the stale-first walk minus the keys a reclaim
    # would skip (resident <= target), with the walk's own values.
    assert dict_store.reclaim_candidates() == [
        (key, dict_store.resident_mb(key), dict_store.target_mb(key))
        for key in dict_store.stale_first_keys()
        if dict_store.resident_mb(key) > dict_store.target_mb(key)
    ]


@needs_vectorized
@settings(max_examples=40, deadline=None)
@given(
    ops=RESIDENCY_OPS,
    targets=st.dictionaries(
        st.sampled_from([f"k{i}" for i in range(8)]),
        st.floats(0.0, 1e6, allow_nan=False),
        max_size=8,
    ),
)
def test_apply_targets_is_backend_identical(ops, targets):
    assume(targets)
    dict_store, array_store = DictResidencyStore(), ArrayResidencyStore()
    for op, idx, value in ops:
        key = f"k{idx}"
        for store in (dict_store, array_store):
            if op == "ensure":
                store.ensure(key, value)
            elif op == "set_resident" and key in store:
                store.set_resident_mb(key, value)
    sizes = {key: 2.0 * mb for key, mb in targets.items()}
    shrunk_dict = dict_store.apply_targets(dict(targets), dict(sizes))
    shrunk_array = array_store.apply_targets(dict(targets), dict(sizes))
    assert bitwise(shrunk_dict) == bitwise(shrunk_array)
    for key in targets:
        assert bitwise(dict_store.snapshot(key)) == bitwise(
            array_store.snapshot(key)
        )
