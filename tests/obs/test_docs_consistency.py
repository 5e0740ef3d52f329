"""Docs/code lockstep: the OBSERVABILITY.md schema must match the code.

Runs ``tools/check_obs_docs.py`` both in-process (for precise drift
assertions) and as a subprocess (the CI entry point operators use).
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.events import EVENT_FIELDS

pytestmark = pytest.mark.obs

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = REPO_ROOT / "tools" / "check_obs_docs.py"
DOC = REPO_ROOT / "docs" / "OBSERVABILITY.md"


def _load_tool():
    import importlib.util

    spec = importlib.util.spec_from_file_location("check_obs_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_doc_schema_matches_code():
    tool = _load_tool()
    doc_schema = tool.parse_doc_schema(DOC.read_text())
    problems = tool.compare(
        doc_schema, {k: list(v) for k, v in EVENT_FIELDS.items()}
    )
    assert problems == []


def test_parser_sees_every_event_type():
    tool = _load_tool()
    doc_schema = tool.parse_doc_schema(DOC.read_text())
    assert sorted(doc_schema) == sorted(EVENT_FIELDS)


def test_compare_flags_drift_in_both_directions():
    tool = _load_tool()
    code = {"epoch_boundary": ["epoch"]}
    # Undocumented event type.
    assert tool.compare({}, code)
    # Phantom documented type.
    assert tool.compare(
        {"epoch_boundary": ["epoch"], "ghost": []}, code
    )
    # Field drift both ways.
    assert tool.compare({"epoch_boundary": ["epoch", "extra"]}, code)
    assert tool.compare({"epoch_boundary": []}, code)
    # In sync.
    assert tool.compare({"epoch_boundary": ["epoch"]}, code) == []


def test_every_derived_metric_is_documented():
    tool = _load_tool()
    names = tool.derived_metric_names()
    assert {"serve.rejected", "slo.warnings", "slo.violations"} <= set(names)
    text = DOC.read_text()
    assert tool.check_metrics_doc(text, names) == []
    # Dropping one name from the section fails; naming it only outside
    # the section does not count.
    section = tool.metrics_section(text)
    dropped = section.replace("`slo.warnings`", "`slo.warning_count`")
    stale = text.replace(section, dropped) + "\n`slo.warnings`\n"
    problems = tool.check_metrics_doc(stale, names)
    assert len(problems) == 1
    assert "'slo.warnings'" in problems[0]
    # A doc without the section fails for every name.
    assert len(tool.check_metrics_doc("", names)) == len(names)


def test_design_hook_table_names_only_real_hooks():
    from repro.sim.fluid import FluidSimulator
    from repro.sim.minibatch import MinibatchEmulator

    tool = _load_tool()
    classes = [FluidSimulator, MinibatchEmulator]
    design = (REPO_ROOT / "docs" / "DESIGN.md").read_text()
    assert "_new_state" in tool.parse_hook_table(design)
    assert tool.check_design_hooks(design, classes) == []
    stale = (
        "| hook | fluid | minibatch |\n"
        "|---|---|---|\n"
        "| `_release(state)` | a | b |\n"
        "| `_pick_numpy()` | a | b |\n"
        "\nprose after the table names `_ghost`\n"
    )
    assert tool.parse_hook_table(stale) == ["_release", "_pick_numpy"]
    problems = tool.check_design_hooks(stale, classes)
    assert len(problems) == 2
    assert all("'_pick_numpy'" in problem for problem in problems)
    # A doc without the table fails too.
    assert tool.check_design_hooks("no table here", classes)


def test_design_hook_table_rejects_a_kernel_only_name():
    from repro.sim.fluid import FluidSimulator
    from repro.sim.minibatch import MinibatchEmulator

    tool = _load_tool()
    classes = [FluidSimulator, MinibatchEmulator]
    # Both simulators inherit these from the kernel; neither defines one.
    table = (
        "| hook | fluid | minibatch |\n"
        "|---|---|---|\n"
        "| `_release(state)` | a | b |\n"
        "| `_first_epoch_done(job)` | a | b |\n"
        "| `_storage_round(trigger)` | a | b |\n"
    )
    problems = tool.check_design_hooks(table, classes)
    assert len(problems) == 2
    assert "'_first_epoch_done'" in problems[0]
    assert "'_storage_round'" in problems[1]
    assert all("kernel" in problem for problem in problems)


def test_class_refs_must_name_real_attributes():
    tool = _load_tool()
    table = tool.repro_symbols()
    assert tool.check_class_refs(DOC.read_text(), table) == []
    ok = (
        "`FluidSimulator._admit_arrivals` (inherited), "
        "`Tracer.metrics` (set in __init__), `Event.to_dict()`"
    )
    assert tool.check_class_refs(ok, table) == []
    stale = "Emitted by `FluidSimulator._storage_decide` and `Ghost.run`."
    problems = tool.check_class_refs(stale, table)
    assert len(problems) == 2
    assert "`FluidSimulator._storage_decide`" in problems[0]
    assert "`Ghost.run`" in problems[1]


def test_hand_written_fault_kind_lists_name_every_kind():
    from repro.faults import FAULT_KINDS

    tool = _load_tool()
    kinds = list(FAULT_KINDS)
    obs_cell = tool.fault_inject_kind_cell(DOC.read_text())
    cli_text = (REPO_ROOT / "docs" / "CLI.md").read_text()
    cli_kinds = tool.cli_faults_kinds(cli_text)
    for listing in (obs_cell, cli_kinds):
        assert tool.check_kind_list("doc", listing, kinds) == []
    # A list missing one kind drifts, and so does one naming a ghost.
    stale = obs_cell.replace(", `data_manager_restart`", "")
    problems = tool.check_kind_list("doc", stale, kinds)
    assert problems == ["doc omits fault kind 'data_manager_restart'"]
    ghost = cli_kinds.replace("`bandwidth`", "`bandwidth`, `power_surge`")
    problems = tool.check_kind_list("doc", ghost, kinds)
    assert len(problems) == 1 and "'power_surge'" in problems[0]
    # Only the fault_inject table's `kind` row counts.
    elsewhere = "### `node_down`\n\n| `kind` | — | one of `bandwidth` |\n"
    assert tool.fault_inject_kind_cell(elsewhere) is None
    assert tool.check_kind_list("doc", None, kinds)
    assert tool.cli_faults_kinds("no faults paragraph") is None


def test_cli_entry_point_passes():
    proc = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "in sync" in proc.stdout
