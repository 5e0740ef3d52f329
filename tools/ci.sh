#!/usr/bin/env bash
# The CI gate, in the order a failure is cheapest to report:
#
#   1. `repro lint --strict`  — the invariant linter (repro.lint) over
#      src/repro, tools/ and benchmarks/, with the checked-in (empty)
#      baseline; a stale baseline entry also fails, so the baseline can
#      only shrink. A second (index-cached) run writes the SARIF
#      artifact to benchmarks/results/lint.sarif.
#   2. docs/schema sync        — tools/check_obs_docs.py keeps
#      docs/OBSERVABILITY.md, docs/FAULTS.md, docs/SERVE.md and
#      docs/LINT.md truthful.
#   3. the tier-1 pytest suite. Four bit-exact anchor suites run here,
#      each under both numeric backends where the simulator has two:
#      tests/sim/test_smoke_anchors.py (two small end-to-end
#      scenarios: fifo x silod on 16 GPUs, and fifo / het-max-min /
#      het-max-throughput on a V100+A100 fleet with the
#      max-throughput >= max-min >= fifo ordering),
#      tests/sim/test_minibatch_anchors.py (the minibatch emulator: one
#      cell per cache system, a mid-epoch preemption and an IO stall,
#      traced and untraced), tests/core/policies/test_gavel_anchors.py
#      (Gavel's joint solver: gavel x silod with a frozen job,
#      finish-time-fairness, het-max-min under churn, and a round large
#      enough for numpy) and tests/sim/test_fluid_anchors.py (the fluid
#      simulator: fifo x silod on private datasets, shared datasets on
#      the exponential multi-filler path, server loss + data-manager
#      crash + bandwidth flap, and an online submit/cancel run).
#   4. serve smoke             — tools/serve_smoke.py boots
#      `python -m repro serve` as a subprocess, drives three jobs
#      through the socket, and requires a drained, clean exit within a
#      hard timeout (see docs/SERVE.md).
#   5. obs smoke               — tools/obs_smoke.py drives a tiny traced
#      scenario through `repro run --events`, then asserts
#      `repro explain` reconstructs a nonzero decision-provenance chain
#      and `repro report --slo` reports the injected deadline
#      violations (see docs/OBSERVABILITY.md).
#   6. benchmark tests         — the benchmark's own suite
#      (perfbench/tests: drain deadline, job-by-job outcome compare,
#      layer wrappers restored). It lives outside the tier-1
#      `testpaths`, so only this stage runs it.
#
# Usage: tools/ci.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro lint --strict =="
python -m repro lint --strict src/repro tools benchmarks

echo "== lint SARIF artifact =="
# Second run hits the whole-program index cache, so this costs only
# the per-file phase; the artifact lands next to the bench results.
mkdir -p benchmarks/results
python -m repro lint --format sarif src/repro tools benchmarks \
    > benchmarks/results/lint.sarif

echo "== docs/schema sync =="
python tools/check_obs_docs.py

echo "== tier-1 tests =="
python -m pytest -x -q "$@"

echo "== serve smoke (tools/serve_smoke.py) =="
python tools/serve_smoke.py

echo "== obs smoke (tools/obs_smoke.py) =="
python tools/obs_smoke.py

echo "== benchmark tests (perfbench/tests) =="
python -m pytest perfbench/tests -q
