"""The structured event schema shared by both simulators.

Every observable state change in a run is one :class:`Event`: a typed,
timestamped record with a fixed per-type field set. The schema is the
contract between the emitting sites (simulators, scheduler, cache
systems) and every consumer (exporters, the ``report`` CLI, future
fidelity tooling) — it is documented field-by-field in
``docs/OBSERVABILITY.md`` and the two are kept in lockstep by
``tools/check_obs_docs.py`` (run as a tier-1 test). Emitting sites call
:meth:`repro.obs.tracer.Tracer.emit` with every field of the type as an
explicit keyword, in :data:`EVENT_FIELDS` order; lint rule ``OBS002``
checks the field set statically.

Event types
-----------
``job_submit`` / ``job_start`` / ``job_finish``
    The job lifecycle. Both simulators emit these in the same order for
    the same trace, which makes the lifecycle subsequence the anchor for
    fluid-vs-minibatch fidelity localisation.
``sched_decision``
    One scheduling round (Algorithm 1): policy, job counts, aggregate
    grants, and wall-clock decision latency.
``alloc_change``
    A job's GPU grant changed between consecutive rounds.
``cache_admit`` / ``cache_evict``
    Resident bytes of a cache key grew / shrank.
``promote_effective``
    A job's resident bytes became *effective* — at a job start (sharing
    pays off immediately) or an epoch boundary (§6 delayed
    effectiveness; see ``docs/MODEL.md`` §"Delayed effectiveness").
``epoch_boundary``
    A job completed an epoch (not emitted for the final epoch, which
    coincides with ``job_finish``).
``io_throttle``
    A job's remote-IO grant for the coming round, alongside the
    instantaneous demand it throttles.
``fault_inject`` / ``node_down`` / ``node_up``
    The fault subsystem (``repro.faults``): one ``fault_inject`` per
    applied schedule entry, plus capacity bookkeeping for node kinds.
``cache_invalidate``
    A fault destroyed resident bytes of a cache key (distinct from
    ``cache_evict``, which is policy-driven).
``job_preempt`` / ``job_restart``
    A job was preempted by a fault (rolled back to its last epoch
    boundary) / released from an explicit ``job_preempt`` hold.
``service_start`` / ``service_stop`` / ``job_reject`` / ``clock_set``
    The online service lifecycle (``repro.serve``): the long-running
    scheduler came up / drained and exited / bounced a submission off
    the admission queue / had its virtual clock reconfigured. Only the
    service may emit these (lint rule OBS004); batch runs never do, so
    they are excluded from equivalence anchors.
``job_cancel``
    A job was withdrawn online before finishing (emitted by the
    simulators' ``cancel_job``, so it is not service-scoped).
``decision_epoch`` / ``decision_job``
    Decision provenance: one ``decision_epoch`` per storage-decision
    round (who was running, what totals were divided) followed by one
    ``decision_job`` per running job carrying the Eq. 4 estimator
    inputs (``f*``, hit ratio, IO grant), the policy score, and the
    resulting allocation. Emitted by the simulators only (lint rule
    OBS004), so batch and online runs produce identical provenance.
``slo_warn`` / ``slo_violation``
    SLO tracking against a job's optional ``deadline_s`` (a JCT
    budget): a single warning as the budget nears exhaustion, and a
    single violation when it is exceeded — while still running or,
    failing that, at finish. Simulator-scoped like provenance
    (lint rule OBS004).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Optional

JOB_SUBMIT = "job_submit"
JOB_START = "job_start"
JOB_FINISH = "job_finish"
SCHED_DECISION = "sched_decision"
CACHE_ADMIT = "cache_admit"
CACHE_EVICT = "cache_evict"
PROMOTE_EFFECTIVE = "promote_effective"
IO_THROTTLE = "io_throttle"
EPOCH_BOUNDARY = "epoch_boundary"
ALLOC_CHANGE = "alloc_change"
FAULT_INJECT = "fault_inject"
NODE_DOWN = "node_down"
NODE_UP = "node_up"
CACHE_INVALIDATE = "cache_invalidate"
JOB_PREEMPT = "job_preempt"
JOB_RESTART = "job_restart"
SERVICE_START = "service_start"
SERVICE_STOP = "service_stop"
JOB_REJECT = "job_reject"
JOB_CANCEL = "job_cancel"
CLOCK_SET = "clock_set"
DECISION_EPOCH = "decision_epoch"
DECISION_JOB = "decision_job"
SLO_WARN = "slo_warn"
SLO_VIOLATION = "slo_violation"

#: The job-lifecycle subset both simulators must emit identically.
LIFECYCLE_TYPES = (JOB_SUBMIT, JOB_START, JOB_FINISH)

#: The service-lifecycle subset. Only ``repro.serve`` may emit these
#: (enforced by lint rule OBS004); ``job_cancel`` is deliberately not
#: here — the simulators emit it from ``cancel_job``.
SERVICE_TYPES = (SERVICE_START, SERVICE_STOP, JOB_REJECT, CLOCK_SET)

#: The fault-subsystem subset (``repro.faults``). For the same fault
#: schedule, both simulators must emit the same sequence of these
#: (timestamps may differ: the minibatch emulator applies faults at
#: batch boundaries).
FAULT_TYPES = (
    FAULT_INJECT,
    NODE_DOWN,
    NODE_UP,
    CACHE_INVALIDATE,
    JOB_PREEMPT,
    JOB_RESTART,
)

#: Decision-provenance and SLO subset. Only the simulators (and
#: ``obs/prov.py`` and ``obs/slo.py``, which emit on their behalf) may
#: emit these — enforced by lint rule OBS004. The online service reuses
#: the simulator code path, which is what keeps batch and serve
#: provenance bit-identical.
SIMULATOR_SCOPED_TYPES = (
    DECISION_EPOCH,
    DECISION_JOB,
    SLO_WARN,
    SLO_VIOLATION,
)

#: Field names each event type carries (beyond ``ts_s``/``etype``/
#: ``job_id``). The docs-consistency check enforces that the schema
#: tables in ``docs/OBSERVABILITY.md`` list exactly these.
EVENT_FIELDS: Dict[str, tuple] = {
    JOB_SUBMIT: (
        "model",
        "dataset",
        "num_gpus",
        "dataset_mb",
        "total_work_mb",
        "deadline_s",
    ),
    JOB_START: ("gpus", "queue_delay_s"),
    JOB_FINISH: ("jct_s", "epochs_done"),
    SCHED_DECISION: (
        "policy",
        "storage_aware",
        "num_jobs",
        "num_running",
        "gpus_granted",
        "cache_granted_mb",
        "io_granted_mbps",
        "latency_ms",
    ),
    ALLOC_CHANGE: ("gpus_before", "gpus_after"),
    CACHE_ADMIT: ("key", "delta_mb", "resident_mb", "via"),
    CACHE_EVICT: ("key", "delta_mb", "resident_mb", "reason"),
    PROMOTE_EFFECTIVE: ("key", "effective_mb", "reason"),
    EPOCH_BOUNDARY: ("epoch",),
    IO_THROTTLE: (
        "desired_mbps",
        "hit_ratio",
        "demand_mbps",
        "grant_mbps",
        "capped",
    ),
    FAULT_INJECT: ("kind", "target", "magnitude"),
    NODE_DOWN: ("kind", "gpus_lost", "cache_lost_mb"),
    NODE_UP: ("kind", "gpus_restored", "cache_restored_mb"),
    CACHE_INVALIDATE: ("key", "delta_mb", "resident_mb", "cause"),
    JOB_PREEMPT: ("reason", "rollback_mb", "epoch"),
    JOB_RESTART: ("reason", "epoch"),
    SERVICE_START: ("policy", "cache", "simulator", "gpus", "queue_limit"),
    SERVICE_STOP: ("reason", "jobs_submitted", "jobs_finished"),
    JOB_REJECT: ("reason", "queue_depth"),
    JOB_CANCEL: ("reason", "work_done_mb"),
    CLOCK_SET: ("action", "speedup", "virtual_s"),
    DECISION_EPOCH: (
        "round",
        "trigger",
        "num_running",
        "num_queued",
        "gpus_total",
        "cache_total_mb",
        "io_total_mbps",
    ),
    DECISION_JOB: (
        "round",
        "gpus",
        "cache_mb",
        "io_mbps",
        "f_star_mbps",
        "hit_ratio",
        "est_mbps",
        "io_bound",
        "eff_cache_mb",
        "score",
        "generation",
        "f_star_gen_mbps",
    ),
    SLO_WARN: ("deadline_s", "elapsed_s", "remaining_s", "ratio"),
    SLO_VIOLATION: ("deadline_s", "jct_s", "overrun_s", "state"),
}

#: Every event type, in documentation order.
EVENT_TYPES = tuple(EVENT_FIELDS)


#: One shared names tuple per field layout: an event points at its
#: layout's tuple instead of keeping its own copy of the field names.
#: Append-only, keyed by value, one entry per field order ever seen
#: (about one per event type), so sharing it process-wide is harmless.
_LAYOUTS: Dict[tuple, tuple] = {}
#: ``_intern_layout(names, names)`` is ``names``' shared tuple.
_intern_layout = _LAYOUTS.setdefault
#: ``_new_event(Event, flat)`` builds an event from its flat tuple
#: without the Python-level ``Event.__new__``; the tracers emit with it.
_new_event = tuple.__new__


def _unorderable(self, other):
    raise TypeError("events are unorderable")


class Event(tuple):
    """One structured trace record.

    ``ts_s`` is simulation time (seconds); ``seq`` is the tracer's
    emission counter, which breaks timestamp ties and gives every run a
    total event order. ``job_id`` is ``None`` for cluster-scoped events
    (e.g. a shared cache key's eviction).

    An immutable record stored as one flat tuple,
    ``(ts_s, etype, job_id, seq, names, *values)``, where ``names`` is
    the field layout's shared tuple from :data:`_LAYOUTS`. No per-event
    dict is kept: :attr:`fields` builds a fresh one on each access, so
    a loop should read it once per event. Two events are equal when all
    five attributes are (field order ignored), an event never equals a
    plain tuple, and the repr lists the attributes in constructor
    order. Events are unhashable and unorderable.
    """

    __slots__ = ()
    __hash__ = None

    def __new__(
        cls,
        ts_s: float,
        etype: str,
        job_id: Optional[str] = None,
        fields: Optional[Dict[str, object]] = None,
        seq: int = 0,
    ) -> "Event":
        if fields is None:
            fields = {}
        names = tuple(fields)
        names = _intern_layout(names, names)
        return _new_event(
            cls, (ts_s, etype, job_id, seq, names, *fields.values())
        )

    ts_s = property(itemgetter(0))
    etype = property(itemgetter(1))
    job_id = property(itemgetter(2))
    seq = property(itemgetter(3))

    @property
    def fields(self) -> Dict[str, object]:
        """The per-type fields, as a new dict in emission order."""
        return dict(zip(self[4], self[5:]))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Event:
            return False if isinstance(other, tuple) else NotImplemented
        return self[:4] == other[:4] and self.fields == other.fields

    def __ne__(self, other: object) -> bool:
        return not self == other

    __lt__ = __le__ = __gt__ = __ge__ = _unorderable

    def __getnewargs__(self) -> tuple:
        return (self[0], self[1], self[2], self.fields, self[3])

    def __repr__(self) -> str:
        return (
            f"Event(ts_s={self[0]!r}, etype={self[1]!r}, "
            f"job_id={self[2]!r}, fields={self.fields!r}, "
            f"seq={self[3]!r})"
        )

    def to_dict(self) -> dict:
        """A JSON-safe flat representation (used by the JSONL exporter)."""
        data = {
            "seq": self[3],
            "ts_s": self[0],
            "etype": self[1],
            "job_id": self[2],
        }
        data.update(zip(self[4], self[5:]))
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        """Rebuild an event from :meth:`to_dict` output."""
        fields = {
            k: v
            for k, v in data.items()
            if k not in ("seq", "ts_s", "etype", "job_id")
        }
        return cls(
            ts_s=float(data["ts_s"]),
            etype=str(data["etype"]),
            job_id=data.get("job_id"),
            fields=fields,
            seq=int(data.get("seq", 0)),
        )


def validate_event(event: Event) -> None:
    """Raise ``ValueError`` if an event does not match the schema."""
    expected = EVENT_FIELDS.get(event.etype)
    if expected is None:
        raise ValueError(
            f"unknown event type {event.etype!r}; "
            f"expected one of {EVENT_TYPES}"
        )
    fields = event.fields
    missing = [name for name in expected if name not in fields]
    extra = [name for name in fields if name not in expected]
    if missing or extra:
        raise ValueError(
            f"{event.etype}: missing fields {missing}, extra fields {extra}"
        )
