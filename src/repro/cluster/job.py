"""Training jobs: specification and runtime progress.

A job is specified the way the paper's schedulers see it: a model trained on
a dataset with a fixed GPU count, an ideal (compute-bound) data-consumption
throughput ``f*`` in MB/s (the original scheduler's ``perf``), and a total
amount of training work expressed as ``numSteps * stepDataSize`` (Eq 6).

Runtime progress (:class:`JobProgress`) is tracked in *bytes of training
data consumed*, because with the pipelined-execution model of §4 every
performance quantity is a data rate. Epoch boundaries — where newly cached
items become effective (§6, "delayed effectiveness") — fall every
``dataset.size_mb`` bytes of progress.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Optional

from repro.cluster.dataset import Dataset


class JobPhase(enum.Enum):
    """Lifecycle of a job inside a simulation."""

    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"
    #: Withdrawn by an online cancellation (``repro.serve``); the job
    #: retires immediately with no finish time.
    CANCELLED = "cancelled"


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


#: Positions within this many MB of an epoch boundary snap across it: a
#: fluid simulation accumulates float error well below this, and an event
#: this close to "now" can be unrepresentable in absolute simulation time.
_EPOCH_SNAP_MB = 1e-3


@dataclasses.dataclass
class JobProgress:
    """Mutable runtime state of a job inside a simulator."""

    job: Job
    phase: JobPhase = JobPhase.PENDING
    work_done_mb: float = 0.0
    start_time_s: Optional[float] = None
    finish_time_s: Optional[float] = None

    @property
    def remaining_work_mb(self) -> float:
        """Bytes of training data still to consume."""
        return max(0.0, self.job.total_work_mb - self.work_done_mb)

    @property
    def epoch_index(self) -> int:
        """Zero-based index of the epoch currently in progress."""
        return int(
            (self.work_done_mb + _EPOCH_SNAP_MB) // self.job.dataset.size_mb
        )

    @property
    def epoch_position_mb(self) -> float:
        """Bytes consumed within the current epoch."""
        return max(
            0.0,
            self.work_done_mb - self.epoch_index * self.job.dataset.size_mb,
        )

    @property
    def work_to_epoch_boundary_mb(self) -> float:
        """Bytes until the next epoch boundary (capped at remaining work)."""
        to_boundary = self.job.dataset.size_mb - self.epoch_position_mb
        return min(to_boundary, self.remaining_work_mb)

    @property
    def done(self) -> bool:
        """Whether the job has consumed all its work."""
        return self.remaining_work_mb <= 1e-9

    def advance(self, data_mb: float) -> None:
        """Consume ``data_mb`` bytes of training data."""
        if data_mb < 0:
            raise ValueError("cannot advance by a negative amount")
        self.work_done_mb = min(
            self.job.total_work_mb, self.work_done_mb + data_mb
        )

    def jct_s(self) -> float:
        """Job completion time (finish − submit), in seconds."""
        if self.finish_time_s is None:
            raise RuntimeError(f"job {self.job.job_id} has not finished")
        return self.finish_time_s - self.job.submit_time_s
