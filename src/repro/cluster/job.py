"""Training jobs: the specification the schedulers see.

A job is specified the way the paper's schedulers see it: a model trained on
a dataset with a fixed GPU count, an ideal (compute-bound) data-consumption
throughput ``f*`` in MB/s (the original scheduler's ``perf``), and a total
amount of training work expressed as ``numSteps * stepDataSize`` (Eq 6).

A job's runtime progress belongs to the simulator running it: the fluid
simulator's job table (:mod:`repro.sim.jobtable`) or the emulator's
per-item pipeline state (:mod:`repro.sim.minibatch`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro.cluster.dataset import Dataset


@dataclasses.dataclass
class Job:
    """A deep-learning training job.

    Attributes
    ----------
    job_id:
        Unique identifier.
    model:
        Model name (informational; used to look profiles up in the zoo).
    dataset:
        The training dataset. Jobs sharing a dataset share its cache (§6).
    num_gpus:
        GPUs the job requests; allocation is all-or-nothing per job except
        under Gavel, which may time-share (fractional rates in the fluid
        simulator).
    ideal_throughput_mbps:
        ``f*``: data consumption rate in MB/s when IO is not the bottleneck,
        at the full requested GPU count.
    total_work_mb:
        ``numSteps * stepDataSize``: total bytes of training data the job
        must consume before completing. Need not be an integer number of
        epochs (the BERT job in §7.1.1 runs 0.07 epochs).
    submit_time_s:
        Arrival time in the trace.
    regular:
        Whether the job satisfies SiloDPerf's assumptions (uniform
        once-per-epoch access, pipelined execution). Irregular jobs fall
        back to the original estimator in a partitioned pool (§6).
    weight:
        Fair-share weight (Gavel supports weighted objectives): a job of
        weight 2 is entitled to twice the equal share. Default 1.
    deadline_s:
        Optional JCT budget relative to submission (an SLO). Jobs with a
        deadline are watched by the :class:`repro.obs.slo.SLOTracker`,
        which emits ``slo_warn``/``slo_violation`` events; ``None``
        (the default) means no SLO.
    """

    job_id: str
    model: str
    dataset: Dataset
    num_gpus: int
    ideal_throughput_mbps: float
    total_work_mb: float
    submit_time_s: float = 0.0
    regular: bool = True
    weight: float = 1.0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in (
            "ideal_throughput_mbps", "total_work_mb", "submit_time_s", "weight"
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"job {self.job_id}: {name} must be finite")
        if self.deadline_s is not None and not math.isfinite(self.deadline_s):
            raise ValueError(f"job {self.job_id}: deadline_s must be finite")
        if self.num_gpus < 1:
            raise ValueError(f"job {self.job_id}: num_gpus must be >= 1")
        if self.ideal_throughput_mbps <= 0:
            raise ValueError(f"job {self.job_id}: f* must be positive")
        if self.total_work_mb <= 0:
            raise ValueError(f"job {self.job_id}: total work must be positive")
        if self.weight <= 0:
            raise ValueError(f"job {self.job_id}: weight must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"job {self.job_id}: deadline_s must be positive when set"
            )

    @property
    def num_epochs(self) -> float:
        """Total epochs of the dataset this job will perform (may be < 1)."""
        return self.total_work_mb / self.dataset.size_mb

    @property
    def ideal_duration_s(self) -> float:
        """Duration if never IO-bound: total work at ``f*``."""
        return self.total_work_mb / self.ideal_throughput_mbps

    def cache_efficiency(self) -> float:
        """Eq 5: remote IO (MB/s) saved per MB of cache, ``f* / d``."""
        return self.ideal_throughput_mbps / self.dataset.size_mb
