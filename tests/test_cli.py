"""The command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.serve.cli import build_server
from repro.workloads.trace_io import load_trace


def test_estimate_command(capsys):
    code = main([
        "estimate", "--f-star", "114", "--dataset-gb", "1392.64",
        "--cache-gb", "696.32", "--io-mbps", "52",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "SiloDPerf" in out
    assert "104" in out  # 52 / 0.5 = 104 MB/s


def test_trace_and_run_commands(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    code = main([
        "trace", str(trace_path), "--jobs", "6", "--seed", "3",
        "--gpus", "8", "--duration-median-min", "30",
    ])
    assert code == 0
    jobs = load_trace(trace_path)
    assert len(jobs) == 6

    code = main([
        "run", str(trace_path), "--policy", "fifo", "--cache", "silod",
        "--gpus", "8", "--gpus-per-server", "4", "--egress-gbps", "1.6",
        "--cache-per-gpu-gb", "64",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "average JCT" in out
    assert "6/6" in out


def test_matrix_command(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(["trace", str(trace_path), "--jobs", "4", "--seed", "4",
          "--gpus", "8", "--duration-median-min", "20"])
    code = main([
        "matrix", str(trace_path), "--policies", "fifo",
        "--caches", "silod", "coordl",
        "--gpus", "8", "--gpus-per-server", "4", "--egress-gbps", "1.6",
        "--cache-per-gpu-gb", "64",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "coordl" in out and "silod" in out


def test_unknown_command_fails():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv, option",
    [
        (["serve", "--policy", "bogus"], "--policy"),
        (["serve", "--cache", "bogus"], "--cache"),
        (["serve", "--queue-limit", "0"], "--queue-limit"),
        (["run", "t.jsonl", "--policy", "bogus"], "--policy"),
        (["matrix", "t.jsonl", "--policies", "bogus"], "--policies"),
    ],
)
def test_bad_names_and_limits_are_usage_errors(argv, option, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["run", "t.jsonl", "--gpus", "0"], "--gpus"),
        (["run", "t.jsonl", "--gpus", "-8"], "--gpus"),
        (["matrix", "t.jsonl", "--gpus-per-server", "0"],
         "--gpus-per-server"),
        (["serve", "--gpus", "-4"], "--gpus"),
        (["trace", "t.jsonl", "--jobs", "-3"], "--jobs"),
        (["trace", "t.jsonl", "--jobs", "0"], "--jobs"),
        (["trace", "t.jsonl", "--gpus", "0"], "--gpus"),
        (["trace", "t.jsonl", "--load", "0"], "--load"),
        (["trace", "t.jsonl", "--load", "nan"], "--load"),
        (["trace", "t.jsonl", "--duration-median-min", "-1"],
         "--duration-median-min"),
        (["trace", "t.jsonl", "--sharing", "1.5"], "--sharing"),
        (["trace", "t.jsonl", "--sharing", "-0.1"], "--sharing"),
    ],
)
def test_out_of_range_sizes_are_usage_errors(argv, option, capsys):
    # Parse only: a regression must fail here, not start a server.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}" in err
    assert "Traceback" not in err


def serve_built(argv):
    """Build, but never start, the server ``repro serve`` would run."""
    return build_server(build_parser().parse_args(["serve", *argv]))


@pytest.mark.parametrize(
    "entry, command",
    [
        (main, ["run", "t.jsonl"]),
        (main, ["matrix", "t.jsonl"]),
        (serve_built, []),
    ],
    ids=["run", "matrix", "serve"],
)
def test_gpus_must_fill_whole_servers(entry, command, capsys):
    """``--gpus 6`` on 4-GPU servers is refused, not run on 4 GPUs."""
    with pytest.raises(SystemExit) as exit_info:
        entry([*command, "--gpus", "6", "--gpus-per-server", "4"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error: --gpus 6 is not a multiple of --gpus-per-server 4" in err
    assert "Traceback" not in err


def test_gpu_mix_ignores_gpus(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(["trace", str(trace_path), "--jobs", "2", "--seed", "3",
          "--gpus", "8", "--duration-median-min", "20", "--sharing", "1"])
    code = main([
        "run", str(trace_path), "--gpus", "6", "--gpu-mix", "V100:2",
        "--egress-gbps", "1.6", "--cache-per-gpu-gb", "64",
    ])
    assert code == 0
    assert "2/2" in capsys.readouterr().out


def test_run_emits_event_log_and_report_reads_it(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    events_path = tmp_path / "ev.jsonl"
    main(["trace", str(trace_path), "--jobs", "5", "--seed", "11",
          "--gpus", "8", "--duration-median-min", "20"])
    code = main([
        "run", str(trace_path), "--gpus", "8", "--egress-gbps", "1.6",
        "--cache-per-gpu-gb", "64", "--reschedule-s", "600",
        "--events", str(events_path),
    ])
    assert code == 0
    capsys.readouterr()

    code = main(["report", str(events_path), "--bins", "6"])
    assert code == 0
    out = capsys.readouterr().out
    for section in (
        "run summary",
        "job lifecycle",
        "throughput timeline",
        "scheduler decision audit",
        "cache activity",
    ):
        assert section in out
    # Every trace job shows up in the lifecycle table.
    assert out.count("job-0000") >= 5


def test_run_writes_valid_chrome_trace(tmp_path, capsys):
    import json

    trace_path = tmp_path / "t.jsonl"
    chrome_path = tmp_path / "ct.json"
    main(["trace", str(trace_path), "--jobs", "3", "--seed", "5",
          "--gpus", "8", "--duration-median-min", "20"])
    code = main([
        "run", str(trace_path), "--gpus", "8", "--egress-gbps", "1.6",
        "--cache-per-gpu-gb", "64", "--chrome-trace", str(chrome_path),
    ])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(chrome_path.read_text())
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    assert {e["ph"] for e in doc["traceEvents"]} <= {"b", "e", "i", "C", "M"}


def test_run_minibatch_simulator(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(["trace", str(trace_path), "--jobs", "3", "--seed", "5",
          "--gpus", "8", "--duration-median-min", "10"])
    code = main([
        "run", str(trace_path), "--simulator", "minibatch",
        "--gpus", "8", "--egress-gbps", "1.6", "--cache-per-gpu-gb", "64",
    ])
    assert code == 0
    assert "3/3" in capsys.readouterr().out


def test_run_with_fault_schedule_and_fault_timeline_report(
    tmp_path, capsys
):
    import json

    trace_path = tmp_path / "t.jsonl"
    faults_path = tmp_path / "faults.json"
    events_path = tmp_path / "ev.jsonl"
    main(["trace", str(trace_path), "--jobs", "4", "--seed", "9",
          "--gpus", "8", "--duration-median-min", "20"])
    faults_path.write_text(json.dumps({
        "faults": [
            {"time_s": 600.0, "kind": "server_crash", "magnitude": 1},
            {"time_s": 3600.0, "kind": "server_recover", "magnitude": 1},
        ],
    }))
    code = main([
        "run", str(trace_path), "--gpus", "8", "--gpus-per-server", "4",
        "--egress-gbps", "1.6", "--cache-per-gpu-gb", "64",
        "--faults", str(faults_path), "--events", str(events_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fault schedule: 2 events" in out

    code = main(["report", str(events_path), "--bins", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fault timeline" in out
    assert "server_crash" in out


def test_run_with_churn_seed(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(["trace", str(trace_path), "--jobs", "3", "--seed", "5",
          "--gpus", "8", "--duration-median-min", "10"])
    code = main([
        "run", str(trace_path), "--gpus", "8", "--egress-gbps", "1.6",
        "--cache-per-gpu-gb", "64", "--churn-seed", "7",
        "--churn-hours", "48",
    ])
    assert code == 0
    assert "fault schedule:" in capsys.readouterr().out


def test_faults_and_churn_seed_are_mutually_exclusive(tmp_path):
    trace_path = tmp_path / "t.jsonl"
    main(["trace", str(trace_path), "--jobs", "3", "--seed", "5",
          "--gpus", "8", "--duration-median-min", "10"])
    with pytest.raises(SystemExit):
        main([
            "run", str(trace_path), "--gpus", "8",
            "--faults", "whatever.json", "--churn-seed", "7",
        ])


def test_report_rejects_non_event_files(tmp_path):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"kind": "not-events"}\n')
    with pytest.raises(ValueError):
        main(["report", str(bogus)])


def _run_with_deadline(tmp_path):
    """A tiny CLI run whose first job carries an impossible deadline."""
    import json

    trace_path = tmp_path / "t.jsonl"
    events_path = tmp_path / "ev.jsonl"
    main(["trace", str(trace_path), "--jobs", "4", "--seed", "11",
          "--gpus", "8", "--duration-median-min", "20"])
    lines = trace_path.read_text().splitlines()
    doomed = json.loads(lines[0])
    doomed["deadline_s"] = 1.0
    lines[0] = json.dumps(doomed)
    trace_path.write_text("\n".join(lines) + "\n")
    code = main([
        "run", str(trace_path), "--gpus", "8", "--egress-gbps", "1.6",
        "--cache-per-gpu-gb", "64", "--events", str(events_path),
    ])
    assert code == 0
    return doomed["job_id"], events_path


def test_explain_command_reconstructs_a_job(tmp_path, capsys):
    job_id, events_path = _run_with_deadline(tmp_path)
    capsys.readouterr()
    code = main(["explain", str(events_path), job_id])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"job {job_id}:")
    assert "Eq.4" in out and "round " in out
    assert "deadline 1s" in out


def test_explain_unknown_job_lists_known_ids(tmp_path, capsys):
    _, events_path = _run_with_deadline(tmp_path)
    capsys.readouterr()
    code = main(["explain", str(events_path), "job-9999"])
    assert code == 1
    captured = capsys.readouterr()
    assert "no decision records" in captured.out
    assert "job-0000" in captured.err


def test_report_slo_section(tmp_path, capsys):
    _, events_path = _run_with_deadline(tmp_path)
    capsys.readouterr()
    code = main(["report", str(events_path), "--slo", "--bins", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SLO attainment: 0/1 (0.0%) met, 1 violated" in out


def test_report_without_slo_flag_omits_the_section(tmp_path, capsys):
    _, events_path = _run_with_deadline(tmp_path)
    capsys.readouterr()
    assert main(["report", str(events_path), "--bins", "4"]) == 0
    assert "SLO attainment" not in capsys.readouterr().out
