"""Check that the working tree reproduces a base revision's perfbench outputs.

    python tools/compare_digests.py [--base REV] [--workloads A,B]
        [--seeds 1-10] [--trace 0,1] [--seconds S]

Checks ``REV`` (default ``HEAD``) out in a temporary ``git worktree``,
runs ``perfbench/run.py`` there and in the working tree for every
workload x seed x ``--trace`` mode, and compares each pair's result
digest and ``failed`` count. Runs go one at a time, so timings are not
compared. Prints one line per pair and exits 1 on any mismatch or on a
run that fails, 0 when every pair matches. The worktree is removed on
exit.

A speedup claim needs identical digests against its parent (see
docs/PERFORMANCE.md); this is that check, end to end.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from typing import List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every workload ``BENCHMARK.json`` declares, in its order.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    WORKLOADS = [w["name"] for w in json.load(_handle)["workloads"]]


def parse_ints(text: str) -> List[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    values: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        values.extend(range(int(low), int(high or low) + 1))
    return values


def run_once(
    tree: str, workload: str, seed: int, trace: int, seconds: float
) -> Tuple[Optional[str], Optional[int], str]:
    """One perfbench run in ``tree``: ``(digest, failed, error)``."""
    proc = subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace),
        ],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return None, None, lines[-1] if lines else f"exit {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    digest = next(
        line.split()[-1] for line in lines if line.startswith("digest ")
    )
    return digest, json.loads(lines[-1])["failed"], ""


def _show(result: Tuple[Optional[str], Optional[int], str]) -> str:
    digest, failed, error = result
    return f"digest={digest} failed={failed}" + (
        f" error={error!r}" if error else ""
    )


def compare(
    base_tree: str,
    workloads: List[str],
    seeds: List[int],
    traces: List[int],
    seconds: float,
) -> int:
    """Run every cell in both trees; returns the number of bad pairs."""
    bad = 0
    for workload, seed, trace in itertools.product(workloads, seeds, traces):
        base = run_once(base_tree, workload, seed, trace, seconds)
        work = run_once(ROOT, workload, seed, trace, seconds)
        ok = not base[2] and not work[2] and base[:2] == work[:2]
        bad += not ok
        print(
            f"{'ok ' if ok else 'BAD'} {workload:<18} seed={seed:<4} "
            f"trace={trace}  base: {_show(base)}  work: {_show(work)}",
            flush=True,
        )
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision to compare against (HEAD)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (all)")
    parser.add_argument("--seeds", default="1-10",
                        help="seeds, e.g. 1-10 or 3,5 (1-10)")
    parser.add_argument("--trace", default="0,1",
                        help="--trace modes to run (0,1)")
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="perfbench --seconds per run (1)")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; expected {WORKLOADS}")
    seeds = parse_ints(args.seeds)
    traces = parse_ints(args.trace)
    if not set(traces) <= {0, 1}:
        parser.error("--trace takes 0 and/or 1")

    tmp_dir = tempfile.mkdtemp(prefix="compare-digests-")
    base_tree = os.path.join(tmp_dir, "base")
    subprocess.run(
        ["git", "worktree", "add", "--detach", "--quiet", base_tree,
         args.base],
        cwd=ROOT, check=True,
    )
    try:
        bad = compare(base_tree, workloads, seeds, traces, args.seconds)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", base_tree],
            cwd=ROOT, check=True,
        )
        os.rmdir(tmp_dir)
    total = len(workloads) * len(seeds) * len(traces)
    print(f"{total - bad}/{total} pairs match {args.base}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
