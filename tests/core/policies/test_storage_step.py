"""The greedy storage step's memo (``allocate_storage_greedily``).

A step whose inputs repeat grants what the last step granted, in the
same order. Over generated sequences of rounds, each one repeating or
moving one input, the memoised step must match a step run without a
memo item for item; a repeat skips the greedy placement.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator
from repro.core.policies import base
from repro.core.policies.base import (
    ScheduleContext,
    StorageStepMemo,
    allocate_storage_greedily,
)
from repro.core.resources import Allocation, ResourceVector
from tests.cache.test_silod_reuse import bitwise

JOBS = [
    Job(
        job_id=f"job-{i}",
        model="resnet50",
        dataset=Dataset(name=f"d-{i % 3}", size_mb=1024.0 * (2 + i % 3)),
        num_gpus=1 + i % 2,
        ideal_throughput_mbps=60.0 + 25.0 * i,
        total_work_mb=1e6,
    )
    for i in range(5)
]

#: What one round may change: each is one input of the memo's key.
MOVES = (
    "repeat",
    "jobs",
    "order",
    "gpus",
    "effective",
    "no-effective",
    "cache-total",
    "io-total",
    "priority",
    "generation",
    "estimator",
    "prior-cache",
)


class _Round:
    """The inputs of one storage step, mutable one field at a time."""

    def __init__(self):
        self.jobs = list(JOBS[:4])
        self.gpus = {job.job_id: float(job.num_gpus) for job in JOBS}
        self.effective = {job.job_id: 300.0 for job in JOBS}
        # Egress above the demands, so every demand shows in a grant.
        self.total = ResourceVector(
            gpus=8.0, cache_mb=4096.0, remote_io_mbps=1000.0
        )
        self.priority = None
        self.estimator = HetSiloDPerfEstimator(
            {"K80": 0.5, "V100": 1.0}, default_generation="V100"
        )
        self.prior_cache = []

    def move(self, kind, draw):
        if kind == "jobs":
            self.jobs = JOBS[: draw(st.integers(1, 5))]
        elif kind == "order":
            self.jobs = list(reversed(self.jobs))
        elif kind == "gpus":
            job = draw(st.sampled_from(self.jobs))
            self.gpus[job.job_id] *= 0.5
        elif kind == "effective":
            job = draw(st.sampled_from(self.jobs))
            self.effective = dict(self.effective or {})
            self.effective[job.job_id] = draw(st.floats(0.0, 4096.0))
        elif kind == "no-effective":
            self.effective = None if self.effective else {}
        elif kind == "cache-total":
            self.total = ResourceVector(
                gpus=8.0,
                cache_mb=draw(st.floats(0.0, 8192.0)),
                remote_io_mbps=self.total.remote_io_mbps,
            )
        elif kind == "io-total":
            self.total = ResourceVector(
                gpus=8.0,
                cache_mb=self.total.cache_mb,
                remote_io_mbps=draw(st.floats(1.0, 400.0)),
            )
        elif kind == "priority":
            ids = [job.job_id for job in self.jobs]
            self.priority = draw(st.sampled_from([None, ids, ids[::-1]]))
        elif kind == "generation":
            job = draw(st.sampled_from(self.jobs))
            self.estimator.assignments[job.job_id] = draw(
                st.sampled_from(["K80", "V100"])
            )
        elif kind == "estimator":
            self.estimator = HetSiloDPerfEstimator(
                {"K80": 0.5, "V100": 1.0},
                default_generation=draw(st.sampled_from(["K80", "V100"])),
            )
        elif kind == "prior-cache":
            # A grant the greedy placement may leave standing.
            job = draw(st.sampled_from(self.jobs))
            self.prior_cache = [
                (job.dataset.name, draw(st.floats(0.0, 512.0)))
            ]

    def step(self, memo):
        allocation = Allocation()
        for job in self.jobs:
            allocation.grant_gpus(job.job_id, self.gpus[job.job_id])
        for name, cache_mb in self.prior_cache:
            allocation.grant_cache(name, cache_mb)
        ctx = ScheduleContext(
            estimator=self.estimator,
            effective_cache_mb=self.effective,
        )
        allocate_storage_greedily(
            self.jobs,
            self.total,
            allocation,
            ctx,
            io_priority_order=self.priority,
            memo=memo,
        )
        return tuple(
            tuple(bitwise(list(grants.items())))
            for grants in (allocation.gpus, allocation.cache,
                           allocation.remote_io)
        )


def _counting_greedy(monkeypatch):
    calls = []
    greedy = base.greedy_cache_allocation

    def counted(*args):
        calls.append(None)
        return greedy(*args)

    monkeypatch.setattr(base, "greedy_cache_allocation", counted)
    return calls


@settings(max_examples=60, deadline=None)
@given(moves=st.lists(st.sampled_from(MOVES), max_size=12), data=st.data())
def test_a_memoised_step_matches_a_fresh_one(moves, data):
    inputs = _Round()
    memo = StorageStepMemo()
    assert inputs.step(memo) == inputs.step(None)
    for kind in moves:
        inputs.move(kind, data.draw)
        assert inputs.step(memo) == inputs.step(None), kind


#: One deterministic change per input of the memo's key.
CHANGES = {
    "jobs": lambda r: setattr(r, "jobs", JOBS[:3]),
    # The same id, grant and effective bytes, another profile.
    "job": lambda r: r.jobs.__setitem__(
        1, dataclasses.replace(r.jobs[1], ideal_throughput_mbps=200.0)
    ),
    "order": lambda r: setattr(r, "jobs", r.jobs[::-1]),
    "gpus": lambda r: r.gpus.__setitem__("job-1", 1.0),
    "effective": lambda r: r.effective.__setitem__("job-0", 1000.0),
    "no-effective": lambda r: setattr(r, "effective", None),
    "cache-total": lambda r: setattr(
        r, "total", ResourceVector(8.0, 2048.0, 1000.0)
    ),
    "io-total": lambda r: setattr(
        r, "total", ResourceVector(8.0, 4096.0, 100.0)
    ),
    # Full-demand-first grants every job in priority order.
    "priority": lambda r: setattr(
        r, "priority", [job.job_id for job in reversed(r.jobs)]
    ),
    "generation": lambda r: r.estimator.assignments.__setitem__(
        "job-1", "K80"
    ),
    "estimator": lambda r: setattr(
        r,
        "estimator",
        HetSiloDPerfEstimator(
            {"K80": 0.5, "V100": 1.0}, default_generation="K80"
        ),
    ),
    # The greedy placement grants d-2 nothing, so this grant stands.
    "prior-cache": lambda r: setattr(r, "prior_cache", [("d-2", 100.0)]),
}


@pytest.mark.parametrize("kind", sorted(CHANGES))
def test_each_moved_input_is_stepped_afresh(kind):
    inputs = _Round()
    memo = StorageStepMemo()
    before = inputs.step(memo)
    CHANGES[kind](inputs)
    after = inputs.step(memo)
    assert after == inputs.step(None)
    assert after != before


def test_a_repeated_step_skips_the_greedy_placement(monkeypatch):
    calls = _counting_greedy(monkeypatch)
    inputs = _Round()
    memo = StorageStepMemo()
    first = inputs.step(memo)
    assert inputs.step(memo) == first
    assert len(calls) == 1
    inputs.effective = dict(inputs.effective, **{"job-0": 0.0})
    inputs.step(memo)
    assert len(calls) == 2

