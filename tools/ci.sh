#!/usr/bin/env bash
# The CI gate, in the order a failure is cheapest to report:
#
#   1. `repro lint`           — the invariant linter (repro.lint) over
#      src/repro, tools/ and benchmarks/; any finding not suppressed
#      inline (`# lint: disable=RULE`), PAR001 included, fails. POL005
#      is among them: a policy declaring `pure_round = True` (its round
#      may be reused when its inputs repeat) must not read `now_s` or
#      `attained_service_s`, in its class chain across modules or in a
#      helper its methods call.
#   2. docs/schema sync        — tools/check_obs_docs.py keeps
#      docs/OBSERVABILITY.md, docs/FAULTS.md, docs/SERVE.md,
#      docs/LINT.md and docs/DESIGN.md's simulator hook table truthful.
#   3. the tier-1 pytest suite. Every run takes the one pure-Python
#      numeric path of the simulators. Four bit-exact anchor suites
#      run here: tests/sim/test_smoke_anchors.py (two small end-to-end
#      scenarios: fifo x silod on 16 GPUs, and fifo / het-max-min /
#      het-max-throughput on a V100+A100 fleet with the
#      max-throughput >= max-min >= fifo ordering),
#      tests/sim/test_minibatch_anchors.py (the minibatch emulator: one
#      cell per cache system, a mid-epoch preemption, an IO stall and
#      a cache loss whose random evictions pick later hits, traced and
#      untraced), tests/core/policies/test_gavel_anchors.py
#      (Gavel's closed-form common-ratio solve: gavel x silod with a
#      frozen job, finish-time-fairness, het-max-min under churn, and
#      rounds of more than 40 jobs; test_gavel_scalar.py proves each
#      filling step against a 40-step bisection and, via scipy's
#      linprog from the dev extra, Gavel's LP) and
#      tests/sim/test_fluid_anchors.py (the fluid
#      simulator: fifo x silod on private datasets, shared datasets on
#      the exponential multi-filler path, server loss + data-manager
#      crash + bandwidth flap, and an online submit/cancel run; each
#      cell also runs traced and pins a digest of its event stream, so
#      a moved emission in the shared lifecycle kernel fails here).
#      The reuse suites run here too: tests/sim/test_round_reuse.py
#      runs every `pure_round` policy in both simulators against a
#      twin that never reuses a scheduling round (four caches, churn,
#      a cancel, a deadline, a K80/P100/V100 fleet) and requires
#      bit-identical results, and tests/core/policies/test_pure_round.py
#      checks over generated rounds that a pure round ignores the
#      clock and attained service. One work pin runs here too:
#      tests/core/test_het_scoring.py::test_mixed_fleet_round_work
#      holds a mixed-fleet het-max-min round's call counts as literals
#      (no equal_share, no pruning bound from the search, its
#      compute_bound calls and candidates scored). Three guards pin
#      the product boundary in tests/test_import_graph.py:
#      test_only_the_instruments_lie_outside_the_product (every
#      src/repro module is in the static import closure of
#      `python -m repro`, except the three instruments it names),
#      test_every_src_definition_has_a_non_test_caller (every def and
#      class under src/repro is named by src/repro, benchmarks/,
#      examples/, tools/ or perfbench/, not only by its own tests) and
#      test_every_src_option_has_a_non_test_setter (every parameter
#      with a default is set by a call in those trees, except the
#      allowlisted ones).
#   4. serve smoke             — tools/serve_smoke.py first launches
#      `python -m repro serve --queue-limit 0` and `--policy bogus`,
#      each of which must exit 2 with no Traceback on stderr. It then
#      boots `python -m repro serve` as a subprocess, drives three jobs
#      through the socket, and requires a drained, clean exit, all
#      within one hard timeout (see docs/SERVE.md). Once the three jobs
#      have finished it requires the cluster `events_total` counter to
#      equal `status`'s `events_recorded` and the `events.<type>`
#      counters to sum to `events_total`. Every reply it reads is
#      parsed strictly: a NaN or Infinity token (not JSON) fails it.
#      Before the drain it reads the live server's /proc/<pid>/maps and
#      fails if a mapped file lies under numpy/ (a skip note where /proc
#      is unreadable), then sends one raw `clock` line with
#      `"speedup": NaN`, requires an `invalid_request` reply, and
#      requires a `ping` that still answers. The service runs with
#      `--events PATH`: before the drain the smoke pauses the clock,
#      subscribes on a second connection and parses every replayed
#      line strictly; the replay must hold exactly `status`'s
#      `events_recorded` lines, and after exit the file's event lines
#      must begin with them, byte for byte.
#   5. obs smoke               — tools/obs_smoke.py drives a tiny traced
#      scenario through `repro run --events`, then asserts
#      `repro explain` reconstructs a nonzero decision-provenance chain
#      and `repro report --slo` reports the injected deadline
#      violations (see docs/OBSERVABILITY.md).
#   6. examples                — runs examples/quickstart.py,
#      online_service.py, extensions_tour.py, curriculum_learning.py and
#      microbenchmark_8gpu.py (about 10 s together); each must exit 0.
#      cluster_simulation.py is left out: it takes about 45 s.
#   7. benchmark tests         — the benchmark's own suite
#      (perfbench/tests: drain deadline, job-by-job outcome compare,
#      layer wrappers restored). It lives outside the tier-1
#      `testpaths`, so only this stage runs it.
#   8. paper claims            — every module under benchmarks/ with
#      timing off: each regenerates one table or figure of the paper
#      (or an extension) and asserts the shape EXPERIMENTS.md reports.
#      Every checked-in benchmarks/results/*.txt render must then come
#      back byte-identical to the index (see the exclusions below), so
#      a render changed on purpose passes once it is staged. The JSON
#      twins carry timestamps and are not compared.
#
# Usage: tools/ci.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro lint =="
python -m repro lint src/repro tools benchmarks

echo "== docs/schema sync =="
python tools/check_obs_docs.py

echo "== tier-1 tests =="
python -m pytest -x -q "$@"

echo "== serve smoke (tools/serve_smoke.py) =="
python tools/serve_smoke.py

echo "== obs smoke (tools/obs_smoke.py) =="
python tools/obs_smoke.py

echo "== examples (examples/) =="
for example in quickstart online_service extensions_tour \
        curriculum_learning microbenchmark_8gpu; do
    python "examples/$example.py" > /dev/null
done

echo "== benchmark tests (perfbench/tests) =="
python -m pytest perfbench/tests -q

echo "== paper claims (benchmarks/) =="
PYTHONPATH=".:$PYTHONPATH" python -m pytest benchmarks -q --benchmark-disable
# Renders left out of the byte-for-byte check, each because it records
# wall-clock readings that differ on every run:
#   ext_decision_latency.txt — measured scheduler decision latencies.
git diff --exit-code -- 'benchmarks/results/*.txt' \
    ':(exclude)benchmarks/results/ext_decision_latency.txt'
