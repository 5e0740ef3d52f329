"""FaultEvent/FaultSchedule validation, ordering, IO, and churn model."""

import json
import math

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    as_schedule,
    generate_churn,
)

pytestmark = pytest.mark.faults


def test_every_kind_constructs():
    for kind in FAULT_KINDS:
        target = "j1" if kind.startswith("job_") else None
        event = FaultEvent(time_s=1.0, kind=kind, target=target)
        assert event.kind == kind


@pytest.mark.parametrize(
    "kwargs",
    [
        {"time_s": 0.0, "kind": "power_surge"},
        {"time_s": -1.0, "kind": "server_crash"},
        {"time_s": 0.0, "kind": "job_preempt"},  # target required
        {"time_s": 0.0, "kind": "job_restart", "target": ""},
        {"time_s": 0.0, "kind": "server_crash", "magnitude": 0},
        {"time_s": 0.0, "kind": "cache_loss", "magnitude": 0.0},
        {"time_s": 0.0, "kind": "cache_recover", "magnitude": -5.0},
        {"time_s": 0.0, "kind": "bandwidth", "magnitude": 0.0},
        # ``nan < 0`` is false, so NaN once reached the simulators: a
        # clock frozen at 0, a run that never ends, an ``int(nan)``.
        {"time_s": math.nan, "kind": "server_crash"},
        {"time_s": 0.0, "kind": "bandwidth", "magnitude": math.nan},
        {"time_s": 0.0, "kind": "server_crash", "magnitude": math.nan},
        {"time_s": math.inf, "kind": "bandwidth", "magnitude": 0.5},
        {"time_s": 0.0, "kind": "cache_loss", "magnitude": math.inf},
    ],
)
def test_invalid_events_rejected(kwargs):
    with pytest.raises(ValueError):
        FaultEvent(**kwargs)


def test_from_dicts_rejects_json_nan():
    # ``json.load`` (and so ``repro run --faults``) accepts bare NaN.
    dicts = json.loads('[{"time_s": NaN, "kind": "server_crash"}]')
    with pytest.raises(ValueError, match="finite"):
        FaultSchedule.from_dicts(dicts)


def test_schedule_sorts_by_time_stably():
    crash = FaultEvent(time_s=10.0, kind="server_crash")
    recover = FaultEvent(time_s=10.0, kind="server_recover")
    early = FaultEvent(time_s=5.0, kind="bandwidth", magnitude=0.5)
    schedule = FaultSchedule([crash, recover, early])
    assert schedule.events == (early, crash, recover)
    # Declared order survives the tie at t=10.
    flipped = FaultSchedule([recover, crash, early])
    assert flipped.events == (early, recover, crash)


def test_empty_schedule_is_falsy():
    assert not FaultSchedule()
    assert not FaultSchedule([])
    assert len(FaultSchedule()) == 0
    assert bool(FaultSchedule([FaultEvent(0.0, "server_crash")]))


def test_dict_roundtrip():
    schedule = FaultSchedule(
        [
            FaultEvent(time_s=1.0, kind="server_crash", magnitude=2),
            FaultEvent(time_s=2.0, kind="job_preempt", target="j1"),
            FaultEvent(time_s=3.0, kind="bandwidth", magnitude=0.25),
            FaultEvent(time_s=4.0, kind="data_manager_restart"),
        ]
    )
    assert FaultSchedule.from_dicts(schedule.to_dicts()) == schedule


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown fault-spec fields"):
        FaultEvent.from_dict(
            {"time_s": 0.0, "kind": "server_crash", "severity": "high"}
        )


def test_load_save_roundtrip(tmp_path):
    schedule = FaultSchedule(
        [
            FaultEvent(time_s=60.0, kind="cache_loss", magnitude=1024.0),
            FaultEvent(time_s=120.0, kind="job_restart", target="j9"),
        ]
    )
    path = tmp_path / "faults.json"
    schedule.save(path)
    assert FaultSchedule.load(path) == schedule


def test_load_accepts_bare_list(tmp_path):
    path = tmp_path / "faults.json"
    path.write_text('[{"time_s": 5.0, "kind": "server_crash"}]')
    schedule = FaultSchedule.load(path)
    assert len(schedule) == 1
    assert schedule.events[0].kind == "server_crash"


def test_load_rejects_non_list(tmp_path):
    path = tmp_path / "faults.json"
    path.write_text('{"faults": "nope"}')
    with pytest.raises(ValueError):
        FaultSchedule.load(path)


def test_as_schedule_normalisation():
    assert as_schedule(None) is None
    assert as_schedule([]) is None
    assert as_schedule(FaultSchedule()) is None
    event = FaultEvent(time_s=0.0, kind="server_crash")
    schedule = FaultSchedule([event])
    assert as_schedule(schedule) is schedule
    assert as_schedule([event]) == schedule


def test_generate_churn_is_seed_deterministic():
    kwargs = dict(duration_s=48 * 3600.0, num_servers=8)
    assert generate_churn(7, **kwargs) == generate_churn(7, **kwargs)
    assert generate_churn(7, **kwargs) != generate_churn(8, **kwargs)


def test_generate_churn_pairs_crashes_with_recoveries():
    schedule = generate_churn(
        3, duration_s=7 * 24 * 3600.0, num_servers=8
    )
    kinds = [e.kind for e in schedule if e.kind.startswith("server_")]
    assert kinds.count("server_crash") == kinds.count("server_recover")
    assert kinds.count("server_crash") > 0


def test_generate_churn_streams_are_independent():
    base = dict(seed=5, duration_s=72 * 3600.0, num_servers=8)
    without_cache = generate_churn(**base)
    with_cache = generate_churn(
        **base, total_cache_mb=1e6, cache_loss_interval_s=6 * 3600.0
    )
    # Enabling the cache-loss stream adds cache_loss events without
    # perturbing the server/bandwidth draws.
    strip = lambda s: [e for e in s if e.kind != "cache_loss"]
    assert strip(with_cache) == strip(without_cache)
    assert any(e.kind == "cache_loss" for e in with_cache)


def test_generate_churn_validates_inputs():
    with pytest.raises(ValueError):
        generate_churn(0, duration_s=0.0, num_servers=4)
    with pytest.raises(ValueError):
        generate_churn(0, duration_s=100.0, num_servers=0)
