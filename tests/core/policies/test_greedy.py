"""Algorithm 2: greedy cache allocation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.policies import greedy


def job(job_id, f_star, dataset):
    return Job(
        job_id=job_id,
        model="m",
        dataset=dataset,
        num_gpus=1,
        ideal_throughput_mbps=f_star,
        total_work_mb=dataset.size_mb,
    )


def test_microbenchmark_allocation_matches_paper():
    """§7.1.1: 2 TB cache -> one ResNet-50 fully cached, the other gets
    the remaining 0.7 TB; EfficientNet and BERT get nothing."""
    tb = 1024.0 * 1024.0
    jobs = [
        job("rn0", 114.0, Dataset("d-rn0", 1.3 * tb)),
        job("rn1", 114.0, Dataset("d-rn1", 1.3 * tb)),
        job("eff0", 69.0, Dataset("d-eff0", 1.3 * tb)),
        job("eff1", 69.0, Dataset("d-eff1", 1.3 * tb)),
        job("bert", 8.0, Dataset("d-bert", 20.9 * tb)),
    ]
    alloc = greedy.greedy_cache_allocation(jobs, 2.0 * tb)
    assert alloc["d-rn0"] == pytest.approx(1.3 * tb)
    assert alloc["d-rn1"] == pytest.approx(0.7 * tb)
    assert "d-eff0" not in alloc
    assert "d-bert" not in alloc


def test_partial_caching_is_allowed():
    # Unlike Quiver, a dataset larger than the remaining space still gets
    # the remainder (Eq 4: partial caching still helps).
    jobs = [job("a", 100.0, Dataset("big", 1000.0))]
    alloc = greedy.greedy_cache_allocation(jobs, 300.0)
    assert alloc["big"] == pytest.approx(300.0)


def test_dataset_sharing_sums_efficiency():
    shared = Dataset("shared", 1000.0)
    solo = Dataset("solo", 1000.0)
    jobs = [
        job("a", 60.0, shared),
        job("b", 60.0, shared),
        job("c", 100.0, solo),
    ]
    # Shared dataset: 120/1000 beats solo's 100/1000.
    rows = greedy.dataset_efficiencies(jobs)
    assert rows[0][0] == "shared"
    alloc = greedy.greedy_cache_allocation(jobs, 1000.0)
    assert alloc == {"shared": 1000.0}


def test_zero_cache():
    jobs = [job("a", 100.0, Dataset("d", 1000.0))]
    assert greedy.greedy_cache_allocation(jobs, 0.0) == {}
    with pytest.raises(ValueError):
        greedy.greedy_cache_allocation(jobs, -1.0)


def test_group_jobs_by_dataset():
    shared = Dataset("s", 10.0)
    groups = greedy.group_jobs_by_dataset(
        [job("a", 1.0, shared), job("b", 1.0, shared)]
    )
    assert set(groups) == {"s"}
    assert len(groups["s"]) == 2


@given(
    f_stars=st.lists(
        st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=10
    ),
    cache=st.floats(min_value=0.0, max_value=1e7),
)
def test_greedy_never_overcommits_and_is_sorted(f_stars, cache):
    jobs = [
        job(f"j{i}", f, Dataset(f"d{i}", 1000.0 * (i + 1)))
        for i, f in enumerate(f_stars)
    ]
    alloc = greedy.greedy_cache_allocation(jobs, cache)
    assert sum(alloc.values()) <= cache + 1e-6
    for name, grant in alloc.items():
        size = next(
            j.dataset.size_mb for j in jobs if j.dataset.name == name
        )
        assert grant <= size + 1e-9
    # Every allocated dataset is at least as efficient as any
    # unallocated one that would have fit.
    effs = dict(
        (name, eff)
        for name, eff, _size in greedy.dataset_efficiencies(jobs)
    )
    if alloc:
        worst_allocated = min(effs[name] for name in alloc)
        for name, eff in effs.items():
            if name not in alloc:
                assert eff <= worst_allocated + 1e-12
