#!/usr/bin/env bash
# The CI gate, in the order a failure is cheapest to report:
#
#   1. `repro lint --strict`  — the invariant linter (repro.lint) over
#      src/repro, tools/ and benchmarks/, with the checked-in (empty)
#      baseline; a stale baseline entry also fails, so the baseline can
#      only shrink. A second (index-cached) run writes the SARIF
#      artifact to benchmarks/results/lint.sarif.
#   2. docs/schema sync        — tools/check_obs_docs.py keeps
#      docs/OBSERVABILITY.md, docs/FAULTS.md and docs/PERFORMANCE.md
#      truthful.
#   3. the tier-1 pytest suite.
#   4. serve smoke             — tools/serve_smoke.py boots
#      `python -m repro serve` as a subprocess, drives three jobs
#      through the socket, and requires a drained, clean exit within a
#      hard timeout (see docs/SERVE.md).
#   5. obs smoke               — tools/obs_smoke.py drives a tiny traced
#      scenario through `repro run --events`, then asserts
#      `repro explain` reconstructs a nonzero decision-provenance chain
#      and `repro report --slo` reports the injected deadline
#      violations (see docs/OBSERVABILITY.md).
#   6. perf smoke              — `repro bench --compare` of the tiny
#      fluid scenario against the checked-in fallback-backend baseline
#      (benchmarks/baselines/BENCH_fluid_tiny.json). Result anchors
#      must match bit-for-bit ([DRIFT] fails: the simulation changed);
#      the timing threshold is deliberately generous (3x) because CI
#      machines vary — this stage catches drift and order-of-magnitude
#      slowdowns, not noise. See docs/PERFORMANCE.md. Serve baselines
#      (BENCH_serve_*.json, including decision_latency_p99_ms) gate the
#      same way when passed to --compare.
#   7. het smoke               — `repro bench --compare` of the tiny
#      mixed-generation scenario against its checked-in baseline
#      (benchmarks/baselines/BENCH_het_tiny.json): all simulated
#      metrics are bit-exact anchors, including the
#      max-sum >= max-min >= fifo aggregate-throughput ordering.
#   8. benchmark tests         — the benchmark's own suite
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

echo "== perf smoke (bench --compare) =="
python -m repro bench --backend fallback --no-write --threshold 3.0 \
    --compare benchmarks/baselines/BENCH_fluid_tiny.json

echo "== het smoke (bench --compare) =="
python -m repro bench --backend fallback --no-write --threshold 3.0 \
    --compare benchmarks/baselines/BENCH_het_tiny.json

echo "== benchmark tests (perfbench/tests) =="
python -m pytest perfbench/tests -q
