"""Synthetic trace generation (§7.1.2, §7.2).

The paper constructs its traces by sampling job durations from the
distribution of Microsoft's production GPU clusters (Jeon et al.,
MSR-TR-2018-13 — the "Philly" analysis: heavy-tailed, most jobs minutes to
hours, a long tail of multi-day jobs, predominantly 1-GPU with a
distributed minority), assigning each job a model/dataset pair, and
setting the total steps so the job runs for the sampled duration at its
profiled V100 throughput. We follow the same recipe:

* durations: log-normal (median ~25 min, sigma ~1.6) truncated to
  [2 min, 7 days];
* GPU counts: {1: 70%, 2: 10%, 4: 12%, 8: 8%};
* model/dataset: drawn from Figure 6's eleven combinations (always that
  mix), each job
  getting a private copy of the dataset by default ("we maintain the
  diversity by assuming all jobs use different datasets"), with a
  configurable fraction of jobs sharing pooled datasets (§7.3);
* arrivals: Poisson, with a rate helper to hit a target cluster load.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from repro import units
from repro.cluster.job import Job
from repro.workloads.models import FIGURE6_JOBS, make_job


@dataclasses.dataclass
class TraceConfig:
    """Knobs of the synthetic trace generator."""

    num_jobs: int = 200
    seed: int = 42
    #: Mean inter-arrival time; use :func:`arrival_rate_for_load` to derive.
    mean_interarrival_s: float = 300.0
    #: Log-normal duration parameters (of the ideal-throughput duration).
    duration_median_s: float = 1500.0
    duration_sigma: float = 1.6
    duration_min_s: float = 120.0
    duration_max_s: float = 7 * units.SECONDS_PER_DAY
    #: GPU-count distribution: (count, probability) pairs.
    gpu_mix: Sequence[Tuple[int, float]] = (
        (1, 0.70),
        (2, 0.10),
        (4, 0.12),
        (8, 0.08),
    )
    #: Fraction of jobs drawing from a *shared* dataset pool (§7.3).
    shared_dataset_fraction: float = 0.0
    #: GPU-generation speed multiplier (Figure 14b).
    gpu_scale: float = 1.0


def generate_trace(config: TraceConfig) -> List[Job]:
    """Generate a reproducible synthetic trace."""
    # numpy loads on the first trace, not at import: ``repro serve``
    # reads jobs off the wire and never draws one.
    import numpy as np

    rng = np.random.default_rng(config.seed)
    gpu_counts = np.array([g for g, _p in config.gpu_mix])
    gpu_probs = np.array([p for _g, p in config.gpu_mix], dtype=float)
    gpu_probs = gpu_probs / gpu_probs.sum()

    # A pool of shared dataset instances, one per mix entry: jobs flagged
    # "sharing" reuse these; other jobs get private clones.
    shared_pool = {
        i: dataclasses.replace(
            dataset, name=f"{dataset.name}-shared-{i}"
        )
        for i, (_model, dataset) in enumerate(FIGURE6_JOBS)
    }

    jobs: List[Job] = []
    clock = 0.0
    for idx in range(config.num_jobs):
        clock += float(rng.exponential(config.mean_interarrival_s))
        mix_idx = int(rng.integers(len(FIGURE6_JOBS)))
        model, base_dataset = FIGURE6_JOBS[mix_idx]
        shares = float(rng.random()) < config.shared_dataset_fraction
        if shares:
            dataset = shared_pool[mix_idx]
        else:
            dataset = dataclasses.replace(
                base_dataset, name=f"{base_dataset.name}-job{idx}"
            )
        num_gpus = int(rng.choice(gpu_counts, p=gpu_probs))
        duration = float(
            np.clip(
                rng.lognormal(
                    np.log(config.duration_median_s), config.duration_sigma
                ),
                config.duration_min_s,
                config.duration_max_s,
            )
        )
        jobs.append(
            make_job(
                job_id=f"job-{idx:05d}",
                model=model,
                dataset=dataset,
                num_gpus=num_gpus,
                duration_at_ideal_s=duration,
                submit_time_s=clock,
                gpu_scale=config.gpu_scale,
            )
        )
    return jobs


def expected_gpu_seconds_per_job(config: TraceConfig) -> float:
    """E[num_gpus] * E[ideal duration] under the configured distributions."""
    import numpy as np

    gpu_mean = sum(g * p for g, p in config.gpu_mix) / sum(
        p for _g, p in config.gpu_mix
    )
    # Log-normal mean = median * exp(sigma^2 / 2); truncation ignored (the
    # helper is a sizing aid, not an exact moment).
    duration_mean = config.duration_median_s * float(
        np.exp(config.duration_sigma**2 / 2.0)
    )
    return gpu_mean * duration_mean


def arrival_rate_for_load(
    config: TraceConfig, total_gpus: int, load: float = 1.0
) -> float:
    """Mean inter-arrival time (s) producing ``load`` x cluster capacity.

    ``load > 1`` oversubscribes the cluster and builds a queue, as in the
    paper's 4-week trace where "the queue builds up more extremely".
    """
    if load <= 0 or total_gpus <= 0:
        raise ValueError("load and GPU count must be positive")
    per_job = expected_gpu_seconds_per_job(config)
    return per_job / (load * total_gpus)


def microbenchmark_trace() -> List[Job]:
    """The 8-V100 micro-benchmark's five jobs (§7.1.1).

    Two 1-GPU ResNet-50s and two 1-GPU EfficientNetB1s, each on a private
    1.3 TB synthesized image dataset (13 / 10 epochs), plus one 4-GPU BERT
    on the 20.9 TB web-search corpus (0.07 epochs) — all submitted at t=0.
    """
    from repro.workloads.datasets import WEB_SEARCH, synthetic_images

    jobs = []
    for i in range(2):
        jobs.append(
            make_job(
                f"resnet50-{i}",
                "resnet50",
                synthetic_images(f"images-resnet50-{i}"),
                num_gpus=1,
                num_epochs=13,
            )
        )
    for i in range(2):
        jobs.append(
            make_job(
                f"efficientnet-b1-{i}",
                "efficientnet-b1",
                synthetic_images(f"images-efficientnet-{i}"),
                num_gpus=1,
                num_epochs=10,
            )
        )
    jobs.append(
        make_job(
            "bert-0",
            "bert",
            WEB_SEARCH,
            num_gpus=4,
            num_epochs=0.07,
        )
    )
    return jobs


def figure4_trace() -> List[Job]:
    """Figure 4's two ResNet-50 jobs, each on its own 1.36 TB ImageNet-22k
    copy (the jobs do not share data — that is what makes the cache split
    contentious)."""
    from repro.workloads.datasets import IMAGENET_22K

    return [
        make_job(
            f"resnet50-{i}",
            "resnet50",
            dataclasses.replace(IMAGENET_22K, name=f"imagenet-22k-job{i}"),
            num_gpus=1,
            num_epochs=3,
        )
        for i in range(2)
    ]
