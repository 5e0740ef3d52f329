"""Fault schedules: declarative cluster-churn specifications.

A fault schedule is a time-ordered list of :class:`FaultEvent` records
describing the churn a simulated cluster experiences: GPU-server crashes
and recoveries, cache-node losses, remote-bandwidth degradations,
explicit job preempt/restart pairs, and data-manager restarts. The
schedule is *declarative* — both simulators consume the same schedule
through :class:`repro.faults.injector.FaultInjector`, which is what
makes fluid-vs-minibatch runs comparable under identical churn.

Schedules come from two places:

* a small spec — a list of plain dicts (:meth:`FaultSchedule.from_dicts`)
  or a JSON file (:meth:`FaultSchedule.load`); see ``docs/FAULTS.md`` for
  the format and recovery semantics of every kind;
* a seeded churn model (:func:`generate_churn`) producing exponential
  crash/repair processes and bandwidth flaps, deterministic per seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro import units

#: Every fault kind a schedule may contain, in documentation order
#: (``docs/FAULTS.md`` documents each under a ``### `kind` `` heading;
#: ``tools/check_obs_docs.py`` enforces that).
FAULT_KINDS = (
    "server_crash",
    "server_recover",
    "cache_loss",
    "cache_recover",
    "bandwidth",
    "job_preempt",
    "job_restart",
    "data_manager_restart",
)

#: Kinds whose ``target`` is a job id and is therefore mandatory.
_JOB_KINDS = ("job_preempt", "job_restart")


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    time_s:
        Simulation time at which the fault strikes. The fluid simulator
        applies it analytically at exactly this time; the minibatch
        emulator applies it at the first batch boundary at or after it.
    kind:
        One of :data:`FAULT_KINDS`.
    target:
        The job id for ``job_preempt``/``job_restart``; an optional
        label (e.g. a server name) for the node kinds.
    magnitude:
        Kind-specific size: the number of servers for
        ``server_crash``/``server_recover``; MB of cache-pool capacity
        for ``cache_loss``/``cache_recover``; the new multiplicative
        factor on the base egress limit for ``bandwidth`` (1.0 restores
        full bandwidth); ignored for the job kinds and
        ``data_manager_restart``.
    """

    time_s: float
    kind: str
    target: Optional[str] = None
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if not math.isfinite(self.time_s) or self.time_s < 0:
            raise ValueError(f"{self.kind}: time_s must be finite and >= 0")
        if not math.isfinite(self.magnitude):
            raise ValueError(f"{self.kind}: magnitude must be finite")
        if self.kind in _JOB_KINDS and not self.target:
            raise ValueError(f"{self.kind}: target job id is required")
        if self.kind in ("server_crash", "server_recover"):
            if self.magnitude < 1:
                raise ValueError(f"{self.kind}: magnitude (servers) must be >= 1")
        elif self.kind in ("cache_loss", "cache_recover"):
            if self.magnitude <= 0:
                raise ValueError(f"{self.kind}: magnitude (MB) must be > 0")
        elif self.kind == "bandwidth":
            if self.magnitude <= 0:
                raise ValueError(
                    "bandwidth: magnitude (factor on the base egress) "
                    "must be > 0"
                )

    def to_dict(self) -> dict:
        """A JSON-safe flat representation."""
        out: Dict[str, object] = {"time_s": self.time_s, "kind": self.kind}
        if self.target is not None:
            out["target"] = self.target
        if self.kind not in _JOB_KINDS:
            out["magnitude"] = self.magnitude
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        known = {"time_s", "kind", "target", "magnitude"}
        extra = sorted(set(data) - known)
        if extra:
            raise ValueError(f"unknown fault-spec fields: {extra}")
        return cls(
            time_s=float(data["time_s"]),
            kind=str(data["kind"]),
            target=data.get("target"),
            magnitude=float(data.get("magnitude", 1.0)),
        )


class FaultSchedule:
    """An immutable, time-ordered sequence of :class:`FaultEvent`.

    Events at the same time keep their declared order (a stable sort),
    so a crash-then-recover pair written in that order is applied in
    that order even at identical timestamps. An empty schedule is falsy
    and the simulators treat it exactly like no schedule at all — the
    no-fault path is a strict no-op.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        indexed = sorted(enumerate(events), key=lambda p: (p[1].time_s, p[0]))
        self.events: tuple = tuple(event for _, event in indexed)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaultSchedule) and self.events == other.events
        )

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self.events)} events)"

    # ------------------------------------------------------------------
    # Spec conversion.
    # ------------------------------------------------------------------

    @classmethod
    def from_dicts(cls, dicts: Iterable[dict]) -> "FaultSchedule":
        """Build a schedule from a list of plain spec dicts."""
        return cls([FaultEvent.from_dict(d) for d in dicts])

    def to_dicts(self) -> List[dict]:
        """The schedule as a list of plain spec dicts."""
        return [event.to_dict() for event in self.events]

    @classmethod
    def load(cls, path) -> "FaultSchedule":
        """Load a schedule from a JSON file.

        Accepts either a bare list of event dicts or an object with a
        ``"faults"`` key holding that list.
        """
        with open(path) as handle:
            data = json.load(handle)
        if isinstance(data, dict):
            data = data.get("faults", [])
        if not isinstance(data, list):
            raise ValueError(
                f"{path}: expected a JSON list of fault events or an "
                'object with a "faults" list'
            )
        return cls.from_dicts(data)

    def save(self, path) -> None:
        """Write the schedule as a JSON file loadable by :meth:`load`."""
        with open(path, "w") as handle:
            json.dump({"faults": self.to_dicts()}, handle, indent=2)
            handle.write("\n")


def generate_churn(
    seed: int,
    duration_s: float,
    num_servers: int,
    total_cache_mb: float = 0.0,
    crash_interval_s: float = units.hours(6.0),
    repair_time_s: float = 1800.0,
    bandwidth_flap_interval_s: float = units.hours(12.0),
    bandwidth_flap_duration_s: float = units.SECONDS_PER_HOUR,
    bandwidth_floor: float = 0.25,
    cache_loss_interval_s: float = 0.0,
    cache_loss_fraction: float = 0.1,
) -> FaultSchedule:
    """Generate a seed-reproducible churn schedule.

    Three independent Poisson processes (Hu et al.'s characterization of
    large GPU datacenters motivates exponential fault interarrivals):

    * **server churn** — crashes every ``crash_interval_s`` on average,
      each followed by a recovery after an exponential repair time with
      mean ``repair_time_s``;
    * **bandwidth flaps** — every ``bandwidth_flap_interval_s`` on
      average the egress drops to a factor drawn uniformly from
      ``[bandwidth_floor, 1.0)``, restored to ``1.0`` after an
      exponential flap duration;
    * **cache-node losses** — disabled unless ``cache_loss_interval_s``
      is positive; each loss removes ``cache_loss_fraction`` of
      ``total_cache_mb`` and is permanent (no paired recovery), which is
      the harsher case for delayed effectiveness.

    The same ``(seed, parameters)`` always yields the same schedule: the
    three processes draw from independently derived
    :class:`random.Random` streams, so enabling one never perturbs the
    others.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    events: List[FaultEvent] = []

    rng_crash = random.Random(f"{seed}:server")
    t = rng_crash.expovariate(1.0 / crash_interval_s)
    while t < duration_s:
        events.append(FaultEvent(time_s=t, kind="server_crash", magnitude=1))
        repair = t + rng_crash.expovariate(1.0 / repair_time_s)
        events.append(
            FaultEvent(time_s=repair, kind="server_recover", magnitude=1)
        )
        t = repair + rng_crash.expovariate(1.0 / crash_interval_s)

    rng_bw = random.Random(f"{seed}:bandwidth")
    t = rng_bw.expovariate(1.0 / bandwidth_flap_interval_s)
    while t < duration_s:
        factor = rng_bw.uniform(bandwidth_floor, 1.0)
        events.append(FaultEvent(time_s=t, kind="bandwidth", magnitude=factor))
        restore = t + rng_bw.expovariate(1.0 / bandwidth_flap_duration_s)
        events.append(
            FaultEvent(time_s=restore, kind="bandwidth", magnitude=1.0)
        )
        t = restore + rng_bw.expovariate(1.0 / bandwidth_flap_interval_s)

    if cache_loss_interval_s > 0 and total_cache_mb > 0:
        rng_cache = random.Random(f"{seed}:cache")
        t = rng_cache.expovariate(1.0 / cache_loss_interval_s)
        while t < duration_s:
            events.append(
                FaultEvent(
                    time_s=t,
                    kind="cache_loss",
                    magnitude=cache_loss_fraction * total_cache_mb,
                )
            )
            t += rng_cache.expovariate(1.0 / cache_loss_interval_s)

    return FaultSchedule(events)


#: Anything the simulators accept as a fault schedule.
ScheduleLike = Union[FaultSchedule, Sequence[FaultEvent], None]


def as_schedule(faults: ScheduleLike) -> Optional[FaultSchedule]:
    """Normalise a ``faults=`` argument; ``None`` for empty/absent."""
    if not faults:
        return None
    if isinstance(faults, FaultSchedule):
        return faults
    return FaultSchedule(list(faults)) or None
