"""Simulation outputs: per-job records, cluster timelines, summary metrics.

Every experiment in §7 reports some subset of: average JCT, makespan, the
JCT distribution (CDF), a total-throughput / remote-IO timeline (Figures 9
and 11), the fairness ratio over time (Figure 13), and the effective-cache
ratio (Figure 8). :class:`RunResult` carries them all; both simulators
produce one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro import units


@dataclasses.dataclass
class JobRecord:
    """Completion record of one job."""

    job_id: str
    model: str
    dataset: str
    num_gpus: int
    submit_time_s: float
    start_time_s: Optional[float]
    finish_time_s: Optional[float]

    @property
    def finished(self) -> bool:
        """Whether the job completed inside the simulated horizon."""
        return self.finish_time_s is not None

    @property
    def jct_s(self) -> float:
        """Completion time (finish − submit); ``inf`` if unfinished."""
        if self.finish_time_s is None:
            return math.inf
        return self.finish_time_s - self.submit_time_s


@dataclasses.dataclass
class TimelineSample:
    """One point of the cluster-wide timeline."""

    time_s: float
    running_jobs: int
    queued_jobs: int
    #: Achieved aggregate data-consumption throughput, MB/s.
    total_throughput_mbps: float
    #: Aggregate compute-bound ("ideal") throughput of running jobs, MB/s.
    ideal_throughput_mbps: float
    #: Remote IO actually flowing, MB/s.
    remote_io_used_mbps: float
    #: Eq 8's objective over running jobs (nan when none).
    fairness_ratio: float
    #: Bytes resident in cache (allocated), MB.
    resident_cache_mb: float
    #: Bytes resident *and* effective for their jobs, MB.
    effective_cache_mb: float


@dataclasses.dataclass
class RunResult:
    """Everything a simulation run produced."""

    scheduler_name: str
    cache_name: str
    records: List[JobRecord]
    timeline: List[TimelineSample]
    end_time_s: float

    # ------------------------------------------------------------------
    # Summary metrics.
    # ------------------------------------------------------------------

    def finished_records(self) -> List[JobRecord]:
        """Records of jobs that completed."""
        return [r for r in self.records if r.finished]

    def average_jct_s(self) -> float:
        """Mean JCT over finished jobs, seconds."""
        finished = self.finished_records()
        if not finished:
            return math.nan
        return sum(r.jct_s for r in finished) / len(finished)

    def average_jct_minutes(self) -> float:
        """Mean JCT in minutes (the paper's reporting unit)."""
        return units.seconds_to_minutes(self.average_jct_s())

    def makespan_s(self) -> float:
        """Completion time of the last job, seconds."""
        finished = self.finished_records()
        if not finished or len(finished) < len(self.records):
            return math.nan
        return max(r.finish_time_s for r in finished)

    def makespan_minutes(self) -> float:
        """Makespan in minutes."""
        return units.seconds_to_minutes(self.makespan_s())

    def average_fairness_ratio(self) -> float:
        """Time-average of Figure 13's fairness ratio (finite samples)."""
        values = [
            s.fairness_ratio
            for s in self.timeline
            if math.isfinite(s.fairness_ratio) and s.running_jobs > 0
        ]
        if not values:
            return math.nan
        return sum(values) / len(values)

    def average_effective_cache_fraction(self) -> float:
        """Mean effective/resident cache ratio over samples (Figure 8)."""
        fractions = [
            s.effective_cache_mb / s.resident_cache_mb
            for s in self.timeline
            if s.resident_cache_mb > 1.0
        ]
        if not fractions:
            return math.nan
        return sum(fractions) / len(fractions)

    def throughput_series(self) -> List[Tuple[float, float, float, float]]:
        """(minutes, achieved, ideal, remote IO) rows — Figures 9 and 11."""
        return [
            (
                units.seconds_to_minutes(s.time_s),
                s.total_throughput_mbps,
                s.ideal_throughput_mbps,
                s.remote_io_used_mbps,
            )
            for s in self.timeline
        ]


def improvement_factor(baseline: float, improved: float) -> float:
    """How many times better ``improved`` is than ``baseline`` (lower-is-
    better metrics such as JCT and makespan): ``baseline / improved``."""
    if improved <= 0 or not math.isfinite(improved):
        return math.nan
    return baseline / improved


def relative_error(reference: float, measured: float) -> float:
    """|measured − reference| / reference — the Table 6 fidelity metric."""
    if reference == 0:
        return math.nan
    return abs(measured - reference) / abs(reference)


def percentile_jct_minutes(
    result: "RunResult", percentiles: Sequence[float]
) -> Dict[float, float]:
    """JCT percentiles in minutes (for CDF-style comparisons)."""
    finished = sorted(r.jct_s for r in result.finished_records())
    if not finished:
        return {p: math.nan for p in percentiles}
    out = {}
    for p in percentiles:
        if not 0 <= p <= 100:
            raise ValueError("percentiles must lie in [0, 100]")
        idx = min(len(finished) - 1, int(round(p / 100 * (len(finished) - 1))))
        out[p] = units.seconds_to_minutes(finished[idx])
    return out
