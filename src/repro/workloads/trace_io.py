"""Trace serialization and summary statistics.

Traces are written as JSON Lines — one job per line — so that runs are
exactly reproducible across machines and external traces (e.g. converted
production logs) can be replayed through the simulators. Datasets are
embedded per job (name/size/items); jobs naming the same dataset share
one :class:`~repro.cluster.dataset.Dataset` instance on load, preserving
cache-sharing semantics (§6).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro import units
from repro.cluster.dataset import Dataset
from repro.cluster.job import Job

#: Format marker written into every line for forward compatibility.
_VERSION = 1


def job_to_dict(job: Job) -> dict:
    """A JSON-safe representation of one job.

    ``deadline_s`` is emitted only when the job declares one, so traces
    without SLOs serialise byte-identically to the pre-SLO format.
    """
    data = {
        "v": _VERSION,
        "job_id": job.job_id,
        "model": job.model,
        "dataset": {
            "name": job.dataset.name,
            "size_mb": job.dataset.size_mb,
            "num_items": job.dataset.num_items,
        },
        "num_gpus": job.num_gpus,
        "ideal_throughput_mbps": job.ideal_throughput_mbps,
        "total_work_mb": job.total_work_mb,
        "submit_time_s": job.submit_time_s,
        "regular": job.regular,
    }
    if job.deadline_s is not None:
        data["deadline_s"] = job.deadline_s
    return data


def job_from_dict(data: dict, datasets: Dict[str, Dataset]) -> Job:
    """Rebuild a job, reusing dataset instances by name.

    A name stands for one dataset: a job that names a dataset already in
    ``datasets`` with another ``size_mb`` or ``num_items`` raises
    ``ValueError`` instead of silently taking the first definition.
    """
    if data.get("v", 1) != _VERSION:
        raise ValueError(f"unsupported trace format version {data.get('v')}")
    ds = data["dataset"]
    dataset = Dataset(
        name=ds["name"],
        size_mb=float(ds["size_mb"]),
        num_items=int(ds["num_items"]),
    )
    known = datasets.get(dataset.name)
    if known is None:
        known = dataset
    elif known != dataset:
        raise ValueError(
            f"dataset {dataset.name!r} is already defined with "
            f"size_mb={known.size_mb!r} and num_items={known.num_items}; "
            f"job {data.get('job_id')!r} gives size_mb={dataset.size_mb!r} "
            f"and num_items={dataset.num_items}"
        )
    job = Job(
        job_id=data["job_id"],
        model=data["model"],
        dataset=known,
        num_gpus=int(data["num_gpus"]),
        ideal_throughput_mbps=float(data["ideal_throughput_mbps"]),
        total_work_mb=float(data["total_work_mb"]),
        submit_time_s=float(data["submit_time_s"]),
        regular=bool(data["regular"]),
        deadline_s=(
            float(data["deadline_s"])
            if data.get("deadline_s") is not None
            else None
        ),
    )
    datasets.setdefault(known.name, known)
    return job


def save_trace(jobs: Sequence[Job], path: Union[str, Path]) -> None:
    """Write a trace as JSON Lines."""
    path = Path(path)
    with path.open("w") as handle:
        for job in jobs:
            handle.write(json.dumps(job_to_dict(job)) + "\n")


def load_trace(path: Union[str, Path]) -> List[Job]:
    """Read a JSON Lines trace; jobs sharing a dataset share the object."""
    path = Path(path)
    datasets: Dict[str, Dataset] = {}
    jobs: List[Job] = []
    with path.open() as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: invalid JSON ({exc})"
                ) from exc
            jobs.append(job_from_dict(data, datasets))
    return jobs


def trace_summary(jobs: Sequence[Job]) -> dict:
    """Aggregate statistics of a trace (for reports and sanity checks)."""
    if not jobs:
        return {"num_jobs": 0}
    durations = sorted(j.ideal_duration_s for j in jobs)
    gpus = [j.num_gpus for j in jobs]
    datasets = {j.dataset.name: j.dataset for j in jobs}
    submits = [j.submit_time_s for j in jobs]
    horizon = max(submits) - min(submits)
    total_gpu_seconds = sum(
        j.num_gpus * j.ideal_duration_s for j in jobs
    )
    return {
        "num_jobs": len(jobs),
        "num_datasets": len(datasets),
        "total_dataset_tb": units.mb_to_tb(
            sum(d.size_mb for d in datasets.values())
        ),
        "gpu_mix": {
            g: gpus.count(g) / len(gpus) for g in sorted(set(gpus))
        },
        "median_ideal_duration_min": units.seconds_to_minutes(
            durations[len(durations) // 2]
        ),
        "max_ideal_duration_min": units.seconds_to_minutes(durations[-1]),
        "arrival_horizon_min": units.seconds_to_minutes(horizon),
        "offered_load_gpu_s": total_gpu_seconds,
        "mean_epochs": sum(j.num_epochs for j in jobs) / len(jobs),
        "sharing_fraction": 1.0 - len(datasets) / len(jobs),
    }
