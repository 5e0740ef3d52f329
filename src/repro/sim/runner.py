"""Experiment runner: build (policy x cache) systems and run traces.

The evaluation sweeps a matrix of three scheduling policies (FIFO, SJF,
Gavel) against four storage configurations (SiloD co-design, Alluxio,
CoorDL, Quiver). This module provides the factory used by every benchmark
and example, with the paper's coupling rule built in: choosing the
``"silod"`` cache makes the scheduler storage-aware (the co-design), any
baseline cache runs the *vanilla* policy with storage decided
independently.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.cache.alluxio import AlluxioCache
from repro.cache.base import CacheSystem
from repro.cache.coordl import CoorDLCache
from repro.cache.nocache import NoCache
from repro.cache.prefetch import PrefetchingDataManager
from repro.cache.quiver import QuiverCache
from repro.cache.silod_cache import SiloDDataManager
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.core.policies.base import SchedulingPolicy
from repro.core.policies.fifo import FifoPolicy
from repro.core.policies.gavel import GavelPolicy
from repro.core.policies.het import (
    HetMaxMinPolicy,
    HetMaxThroughputPolicy,
)
from repro.core.policies.las import LasPolicy
from repro.core.policies.objectives import (
    FinishTimeFairnessPolicy,
    MaxTotalThroughputPolicy,
)
from repro.core.policies.sjf import SjfPolicy
from repro.core.silod import SiloDScheduler
from repro.sim.fluid import FluidSimulator
from repro.sim.kernel import SimulatorKernel
from repro.sim.metrics import RunResult
from repro.sim.minibatch import MinibatchEmulator

#: Policy name -> constructor: every name :func:`make_policy` accepts.
POLICY_FACTORIES: Dict[str, Callable[[], SchedulingPolicy]] = {
    "fifo": FifoPolicy,
    "sjf": SjfPolicy,
    "gavel": GavelPolicy,
    "las": LasPolicy,
    "max-throughput": MaxTotalThroughputPolicy,
    "finish-time-fairness": FinishTimeFairnessPolicy,
    "het-max-min": HetMaxMinPolicy,
    "het-max-throughput": HetMaxThroughputPolicy,
}
#: Cache name -> constructor: every name :func:`make_cache` accepts.
CACHE_FACTORIES: Dict[str, Callable[..., CacheSystem]] = {
    "silod": SiloDDataManager,
    "silod-no-io-alloc": functools.partial(
        SiloDDataManager, io_allocation=False
    ),
    "silod-prefetch": PrefetchingDataManager,
    "alluxio": AlluxioCache,
    "coordl": CoorDLCache,
    "quiver": QuiverCache,
    "nocache": NoCache,
}
#: The paper's evaluation matrix: the default policy and cache sweeps.
POLICIES = ("fifo", "sjf", "gavel")
CACHES = ("silod", "alluxio", "coordl", "quiver")
#: ``simulator`` name -> the simulator class that runs it; the one
#: registry behind :func:`make_simulator` and both CLIs.
SIMULATORS = {"fluid": FluidSimulator, "minibatch": MinibatchEmulator}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a scheduling policy by name."""
    factory = POLICY_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown policy {name!r}; expected one of "
            f"{tuple(POLICY_FACTORIES)}"
        )
    return factory()


def make_cache(name: str, **kwargs) -> CacheSystem:
    """Instantiate a cache system by name."""
    factory = CACHE_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown cache {name!r}; expected one of "
            f"{tuple(CACHE_FACTORIES)}"
        )
    return factory(**kwargs)


def make_system(
    policy: str, cache: str, cache_kwargs: Optional[dict] = None
) -> Tuple[SiloDScheduler, CacheSystem]:
    """Build a (scheduler, cache system) pair with the coupling rule.

    The SiloD configurations run the policy storage-aware (Algorithm 1);
    baseline caches run the vanilla policy and decide storage themselves.
    """
    cache_system = make_cache(cache, **(cache_kwargs or {}))
    storage_aware = isinstance(cache_system, SiloDDataManager)
    scheduler = SiloDScheduler(
        make_policy(policy), storage_aware=storage_aware
    )
    return scheduler, cache_system


def make_simulator(
    cluster: Cluster,
    policy: str,
    cache: str,
    jobs: Sequence[Job],
    simulator: str = "fluid",
    cache_kwargs: Optional[dict] = None,
    **sim_kwargs,
) -> SimulatorKernel:
    """Build the :data:`SIMULATORS` class ``simulator`` names over one
    (policy, cache) cell; ``sim_kwargs`` (``tracer=``, ``faults=``, ...)
    go to its constructor."""
    scheduler, cache_system = make_system(policy, cache, cache_kwargs)
    sim_class = SIMULATORS.get(simulator)
    if sim_class is None:
        raise ValueError("simulator must be 'fluid' or 'minibatch'")
    return sim_class(cluster, scheduler, cache_system, jobs, **sim_kwargs)


def run_experiment(
    cluster: Cluster,
    policy: str,
    cache: str,
    jobs: Sequence[Job],
    simulator: str = "fluid",
    cache_kwargs: Optional[dict] = None,
    **sim_kwargs,
) -> RunResult:
    """Run one (policy, cache) cell over a trace and return the result."""
    return make_simulator(
        cluster, policy, cache, jobs, simulator, cache_kwargs, **sim_kwargs
    ).run()


def run_matrix(
    cluster: Cluster,
    jobs: Sequence[Job],
    policies: Iterable[str] = POLICIES,
    caches: Iterable[str] = CACHES,
    simulator: str = "fluid",
    **sim_kwargs,
) -> Dict[Tuple[str, str], RunResult]:
    """Run every (policy, cache) combination — Figure 12's grid."""
    results: Dict[Tuple[str, str], RunResult] = {}
    for policy in policies:
        for cache in caches:
            results[(policy, cache)] = run_experiment(
                cluster, policy, cache, jobs, simulator, **sim_kwargs
            )
    return results
