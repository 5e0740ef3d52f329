"""Experiment runner factory and coupling rule."""

import argparse

import pytest

from repro import units
from repro.cache.silod_cache import SiloDDataManager
from repro.cli import build_parser
from repro.cluster.hardware import Cluster
from repro.serve.engine import OnlineEngine
from repro.sim.runner import (
    CACHE_FACTORIES,
    CACHES,
    POLICIES,
    POLICY_FACTORIES,
    SIMULATORS,
    make_cache,
    make_policy,
    make_simulator,
    make_system,
    run_experiment,
    run_matrix,
)
from repro.workloads.models import make_job
from repro.workloads.datasets import synthetic_images

GB = 1024.0


def tiny_trace():
    return [
        make_job(
            "a",
            "resnet50",
            synthetic_images("s-a", size_mb=units.tb(0.01)),
            num_epochs=2,
        ),
        make_job(
            "b",
            "efficientnet-b1",
            synthetic_images("s-b", size_mb=units.tb(0.01)),
            num_epochs=2,
        ),
    ]


def tiny_cluster():
    return Cluster.build(1, 4, 15.0 * GB, 100.0)


def test_factories_cover_all_names():
    # The paper-matrix defaults are table names, and every table name
    # builds an object carrying that name.
    assert set(POLICIES) <= set(POLICY_FACTORIES)
    assert set(CACHES) <= set(CACHE_FACTORIES)
    for name in POLICY_FACTORIES:
        assert make_policy(name).name == name
    for name in CACHE_FACTORIES:
        assert make_cache(name).name == name
    # An unknown name's error lists every accepted name.
    with pytest.raises(ValueError) as policy_error:
        make_policy("lifo")
    for name in POLICY_FACTORIES:
        assert repr(name) in str(policy_error.value)
    with pytest.raises(ValueError) as cache_error:
        make_cache("memcached")
    for name in CACHE_FACTORIES:
        assert repr(name) in str(cache_error.value)


def test_coupling_rule():
    scheduler, cache = make_system("fifo", "silod")
    assert scheduler.storage_aware
    assert isinstance(cache, SiloDDataManager)
    scheduler, cache = make_system("gavel", "alluxio")
    assert not scheduler.storage_aware


def test_ablation_cache_names():
    cache = make_cache("silod-no-io-alloc")
    assert cache.name == "silod-no-io-alloc"
    scheduler, cache = make_system("gavel", "silod-no-io-alloc")
    assert scheduler.storage_aware  # still the co-designed scheduler


def test_run_experiment_both_simulators():
    for simulator in ("fluid", "minibatch"):
        result = run_experiment(
            tiny_cluster(),
            "fifo",
            "silod",
            tiny_trace(),
            simulator=simulator,
        )
        assert len(result.finished_records()) == 2
    with pytest.raises(ValueError):
        run_experiment(
            tiny_cluster(), "fifo", "silod", tiny_trace(), simulator="magic"
        )


def test_simulator_registry_backs_every_entry_point():
    assert list(SIMULATORS) == ["fluid", "minibatch"]
    message = "simulator must be 'fluid' or 'minibatch'"
    with pytest.raises(ValueError, match=message):
        run_experiment(
            tiny_cluster(), "fifo", "silod", tiny_trace(), simulator="magic"
        )
    with pytest.raises(ValueError, match=message):
        OnlineEngine(tiny_cluster(), simulator="magic")
    commands = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for command in ("run", "serve"):
        option = next(
            action
            for action in commands.choices[command]._actions
            if "--simulator" in action.option_strings
        )
        assert option.choices == list(SIMULATORS)


def test_make_simulator_builds_the_coupled_cell():
    sim = make_simulator(
        tiny_cluster(), "gavel", "alluxio", [], simulator="minibatch"
    )
    assert type(sim) is SIMULATORS["minibatch"]
    assert sim.scheduler.storage_aware is False
    assert sim.cache_system.name == "alluxio"


def test_run_matrix_covers_grid():
    results = run_matrix(
        tiny_cluster(),
        tiny_trace(),
        policies=("fifo", "sjf"),
        caches=("silod", "coordl"),
    )
    assert set(results) == {
        ("fifo", "silod"),
        ("fifo", "coordl"),
        ("sjf", "silod"),
        ("sjf", "coordl"),
    }
    for result in results.values():
        assert len(result.finished_records()) == 2
