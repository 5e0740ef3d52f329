"""Decision provenance: why a job got its GPUs and cache share.

Every storage-decision round of either simulator emits one
``decision_epoch`` event (cluster-level context: who was running, what
totals were divided) followed by one ``decision_job`` event per running
job, carrying exactly the inputs Eq. 4 consumed — the compute-bound
rate ``f*``, the modelled hit ratio, the remote-IO grant — plus the
policy's score for the job and the resulting allocation (GPUs, cache
share, IO). Because emission happens inside the simulators (lint rule
OBS004 keeps it out of ``repro/serve/``), a batch run and an online
run over the same trace produce bit-identical provenance, which the
serve equivalence tests pin down with ``localize_divergence``.

:func:`emit_decision_provenance` is the one emission entry point. It
reads the round's :class:`~repro.cache.base.StorageContext` — the same
object the cache system decided from — so provenance reports exactly
the inputs the decision saw. :func:`decision_chain` /
:func:`render_explain` are the query side that
``python -m repro explain <events> <job-id>`` renders: the per-round
causal chain of a job's allocation, with Eq. 4 achieved-rate
reconstruction (``min(f*, grant/miss)``) and Eq. 5 cache efficiency
(``f*/d``) called out where the cache share moved.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.core.perf_model import achieved_rate
from repro.obs import events as ev
from repro.obs.events import Event

if TYPE_CHECKING:
    from repro.cache.base import StorageContext, StorageDecision
    from repro.core.silod import SiloDScheduler

@dataclasses.dataclass
class DecisionRecord:
    """One job's allocation decision at one round, reconstructed."""

    round: int
    ts_s: float
    trigger: str
    gpus: float
    cache_mb: float
    io_mbps: float
    f_star_mbps: float
    hit_ratio: float
    est_mbps: float
    io_bound: bool
    eff_cache_mb: float
    score: float
    #: Assigned GPU generation ("?" for pre-heterogeneity logs).
    generation: str = "?"
    #: Per-generation compute bounds weighed this round (empty for
    #: pre-heterogeneity logs or generation-naive schedulers).
    f_star_gen_mbps: Dict[str, float] = dataclasses.field(
        default_factory=dict
    )


def emit_decision_provenance(
    ctx: StorageContext,
    decision: StorageDecision,
    scheduler: SiloDScheduler,
    round_index: int,
    trigger: str,
    cache_key: Callable,
    effective_mb: Mapping[str, float],
) -> None:
    """Emit one round's ``decision_epoch`` + per-job ``decision_job``.

    ``ctx`` is the round's storage context: the tracer, clock, totals,
    queued count, GPU grants and the ``f*`` column come from it, the
    cache share, hit ratio and IO grant from the cache system's
    ``decision``, and the policy's scores and GPU generations from
    ``scheduler``. ``effective_mb`` is read when the event is emitted
    (the emulator passes a map taken after its targets applied).

    Jobs are emitted in ``job_id`` order so the provenance subsequence
    is deterministic regardless of the caller's iteration order. Free
    when tracing is off (callers still guard on ``tracer.enabled``).
    A job absent from the scheduler's generation maps falls back to its
    ``default_generation`` and a one-entry ``{generation: f*}`` map,
    so homogeneous runs carry the same (trivially constant) fields —
    batch and serve emissions stay bit-identical either way.
    """
    tracer = ctx.tracer
    if not tracer.enabled:
        return
    ts_s = ctx.clock_s
    running_jobs = ctx.running_jobs
    tracer.emit(
        ts_s,
        ev.DECISION_EPOCH,
        round=round_index,
        trigger=trigger,
        num_running=len(running_jobs),
        num_queued=len(ctx.queued_jobs),
        gpus_total=ctx.total_gpus,
        cache_total_mb=ctx.total_cache_mb,
        io_total_mbps=ctx.total_io_mbps,
    )
    for job, f_star in sorted(
        zip(running_jobs, ctx.f_stars), key=lambda pair: pair[0].job_id
    ):
        job_id = job.job_id
        hit = decision.hit_ratios.get(job_id, 0.0)
        hit = hit if hit > 0.0 else 0.0
        hit = hit if hit < 1.0 else 1.0
        grant = decision.io_grants.get(job_id, 0.0)
        est = achieved_rate(f_star, hit, grant)
        generation = scheduler.last_generations.get(
            job_id, scheduler.default_generation
        )
        by_gen = scheduler.last_gen_scores.get(job_id)
        if by_gen is None:
            by_gen = {generation: f_star}
        tracer.emit(
            ts_s,
            ev.DECISION_JOB,
            job_id,
            round=round_index,
            gpus=ctx.gpu_grants.get(job_id, 0.0),
            cache_mb=decision.cache_targets.get(cache_key(job), 0.0),
            io_mbps=grant,
            f_star_mbps=f_star,
            hit_ratio=hit,
            est_mbps=est,
            io_bound=est < f_star - 1e-9,
            eff_cache_mb=effective_mb.get(job_id, 0.0),
            score=scheduler.last_scores.get(job_id, 0.0),
            generation=generation,
            f_star_gen_mbps=dict(by_gen),
        )


# ----------------------------------------------------------------------
# Query side (``python -m repro explain``).
# ----------------------------------------------------------------------


def decision_chain(
    events: Sequence[Event], job_id: str
) -> List[DecisionRecord]:
    """Every :class:`DecisionRecord` of ``job_id``, in round order."""
    triggers: Dict[int, str] = {}
    for event in events:
        if event.etype == ev.DECISION_EPOCH:
            fields = event.fields
            triggers[fields["round"]] = fields["trigger"]
    chain: List[DecisionRecord] = []
    for event in events:
        if event.etype != ev.DECISION_JOB or event.job_id != job_id:
            continue
        f = event.fields
        chain.append(
            DecisionRecord(
                round=f["round"],
                ts_s=event.ts_s,
                trigger=triggers.get(f["round"], "?"),
                gpus=f["gpus"],
                cache_mb=f["cache_mb"],
                io_mbps=f["io_mbps"],
                f_star_mbps=f["f_star_mbps"],
                hit_ratio=f["hit_ratio"],
                est_mbps=f["est_mbps"],
                io_bound=f["io_bound"],
                eff_cache_mb=f["eff_cache_mb"],
                score=f["score"],
                # ``.get`` defaults keep pre-heterogeneity event logs
                # replayable.
                generation=f.get("generation", "?"),
                f_star_gen_mbps=dict(f.get("f_star_gen_mbps") or {}),
            )
        )
    return chain


def job_identity(
    events: Sequence[Event], job_id: str
) -> Optional[dict]:
    """The job's ``job_submit`` fields, or ``None`` when absent."""
    for event in events:
        if event.etype == ev.JOB_SUBMIT and event.job_id == job_id:
            return event.fields
    return None


def render_explain(events: Sequence[Event], job_id: str) -> str:
    """The human-readable causal chain for one job's allocations."""
    chain = decision_chain(events, job_id)
    identity = job_identity(events, job_id)
    lines: List[str] = []
    if identity is not None:
        dataset_mb = identity.get("dataset_mb", 0.0) or 0.0
        f_stars = [r.f_star_mbps for r in chain]
        f_star = max(f_stars) if f_stars else 0.0
        efficiency = f_star / dataset_mb if dataset_mb > 0 else 0.0
        deadline = identity.get("deadline_s")
        deadline_txt = (
            f", deadline {deadline:.0f}s" if deadline is not None else ""
        )
        lines.append(
            f"job {job_id}: {identity.get('model', '?')} on "
            f"{identity.get('dataset', '?')} "
            f"({dataset_mb:,.0f} MB), f* {f_star:,.1f} MB/s, "
            f"Eq.5 cache efficiency f*/d = {efficiency:.4f}/s"
            f"{deadline_txt}"
        )
    if not chain:
        lines.append(
            f"no decision records for {job_id!r} "
            "(job never ran, or the run was traced without provenance)"
        )
        return "\n".join(lines)
    prev: Optional[DecisionRecord] = None
    for rec in chain:
        bound = "io-bound" if rec.io_bound else "compute-bound"
        gen_txt = (
            f" on {rec.generation}" if rec.generation != "?" else ""
        )
        lines.append(
            f"round {rec.round} @ t={rec.ts_s:,.1f}s [{rec.trigger}]: "
            f"gpus {rec.gpus:g}{gen_txt}, cache {rec.cache_mb:,.1f} MB "
            f"(effective {rec.eff_cache_mb:,.1f}), "
            f"io {rec.io_mbps:,.1f} MB/s, score {rec.score:.4g}"
        )
        if len(rec.f_star_gen_mbps) > 1:
            alts = ", ".join(
                f"{gen} {f_star:,.1f}"
                for gen, f_star in rec.f_star_gen_mbps.items()
            )
            lines.append(f"  f* by generation (MB/s): {alts}")
        lines.append(
            f"  Eq.4: est = min(f* {rec.f_star_mbps:,.1f}, "
            f"grant {rec.io_mbps:,.1f} / miss {1.0 - rec.hit_ratio:.3f})"
            f" = {rec.est_mbps:,.1f} MB/s -> {bound}"
        )
        if prev is not None and abs(rec.cache_mb - prev.cache_mb) > 1e-9:
            direction = "rose" if rec.cache_mb > prev.cache_mb else "fell"
            lines.append(
                f"  cache share {direction} "
                f"{prev.cache_mb:,.1f} -> {rec.cache_mb:,.1f} MB; "
                f"hit {prev.hit_ratio:.3f} -> {rec.hit_ratio:.3f}, "
                f"Eq.4 est {prev.est_mbps:,.1f} -> "
                f"{rec.est_mbps:,.1f} MB/s"
            )
        prev = rec
    return "\n".join(lines)
