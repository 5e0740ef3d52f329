"""Check that the working tree reproduces a base revision's perfbench outputs.

    python tools/compare_digests.py [--base REV | --base-tree DIR]
        [--workloads A,B] [--seeds 1-10] [--trace 0,1] [--seconds S]
        [--pairs N]

Checks ``REV`` (default ``HEAD``) out in a temporary ``git worktree``
(or uses the checkout at ``DIR``), runs ``perfbench/run.py`` there and
in the working tree for every workload x seed x ``--trace`` mode, and
compares each pair's result digest and ``failed`` count. Prints one
line per pair and exits 1 on any mismatch or on a run that fails, 0
when every pair matches. The worktree is removed on exit.

With ``--pairs N`` and every digest matching, it then times ``N``
pairs per workload (``--trace 0``, the benchmark's own ``run_seconds``,
the ``--seeds`` in turn), alternating which side runs first. For every
end-to-end metric it prints each side's median and quartiles, the
base's interquartile range and the pairs the working tree won, and
whether the gain rule holds: the working tree wins at least nine pairs
in ten (ties count for neither side) and the medians differ, in its
favour, by more than the base's interquartile range.

A speedup claim needs identical digests against its parent (see
docs/PERFORMANCE.md); this is that check, end to end, and the timing
the claim rests on.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    _BENCHMARK = json.load(_handle)
#: Every workload ``BENCHMARK.json`` declares, in its order.
WORKLOADS = [w["name"] for w in _BENCHMARK["workloads"]]
#: The end-to-end metrics, each with the direction that is better.
END_TO_END = [(m["name"], m["better"]) for m in _BENCHMARK["end_to_end"]]
#: Length of one timed run, as the benchmark runs it.
RUN_SECONDS = float(_BENCHMARK["run_seconds"])


class Run(NamedTuple):
    """What one perfbench run reported (``error`` empty on success)."""

    digest: Optional[str]
    failed: Optional[int]
    error: str
    metrics: Dict[str, float]


def parse_ints(text: str) -> List[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    values: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        values.extend(range(int(low), int(high or low) + 1))
    return values


def run_once(
    tree: str, workload: str, seed: int, trace: int, seconds: float
) -> Run:
    """One perfbench run in ``tree``."""
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
        error = lines[-1] if lines else f"exit {proc.returncode}"
        return Run(None, None, error, {})
    lines = proc.stdout.strip().splitlines()
    digest = next(
        line.split()[-1] for line in lines if line.startswith("digest ")
    )
    report = json.loads(lines[-1])
    metrics = {
        name: entry["value"] for name, entry in report["metrics"].items()
    }
    return Run(digest, report["failed"], "", metrics)


def _show(run: Run) -> str:
    return f"digest={run.digest} failed={run.failed}" + (
        f" error={run.error!r}" if run.error else ""
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
        ok = (
            not base.error and not work.error
            and (base.digest, base.failed) == (work.digest, work.failed)
        )
        bad += not ok
        print(
            f"{'ok ' if ok else 'BAD'} {workload:<18} seed={seed:<4} "
            f"trace={trace}  base: {_show(base)}  work: {_show(work)}",
            flush=True,
        )
    return bad


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values`` (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize_pairs(
    pairs: Sequence[Tuple[Dict[str, float], Dict[str, float]]],
    metrics: Sequence[Tuple[str, str]] = tuple(END_TO_END),
) -> List[dict]:
    """One row per ``(name, better)`` metric over ``(base, work)`` pairs.

    Each row holds both sides' ``(q1, median, q3)``, the base's
    interquartile range, the pairs the working tree won and tied, and
    ``gain``: it won at least nine pairs in ten (ties count for
    neither) and its median is better than the base's by more than
    the base's interquartile range.
    """
    rows = []
    for name, better in metrics:
        sign = 1.0 if better == "higher" else -1.0
        base = [b[name] for b, _ in pairs]
        work = [w[name] for _, w in pairs]
        wins = sum(sign * (w - b) > 0 for b, w in zip(base, work))
        ties = sum(w == b for b, w in zip(base, work))
        base_q, work_q = quartiles(base), quartiles(work)
        iqr = base_q[2] - base_q[0]
        rows.append({
            "name": name,
            "base": base_q,
            "work": work_q,
            "base_iqr": iqr,
            "wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "gain": 10 * wins >= 9 * len(pairs)
            and sign * (work_q[1] - base_q[1]) > iqr,
        })
    return rows


def format_summary(rows: Sequence[dict]) -> List[str]:
    """The rows of :func:`summarize_pairs` as an aligned table."""
    def spread(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [
        f"  {'metric':<14} {'base median [q1, q3]':<30} "
        f"{'work median [q1, q3]':<30} {'base IQR':>9} {'won':>7} "
        f"{'tied':>4}  gain"
    ]
    for row in rows:
        lines.append(
            f"  {row['name']:<14} {spread(row['base']):<30} "
            f"{spread(row['work']):<30} {row['base_iqr']:>9.3g} "
            f"{row['wins']:>3}/{row['pairs']:<3} {row['ties']:>4}  "
            f"{'yes' if row['gain'] else 'no'}"
        )
    return lines


def time_pairs(
    base_tree: str, workloads: List[str], seeds: List[int], pairs: int
) -> int:
    """Time ``pairs`` alternating pairs per workload and print each
    run and the summary; returns the number of runs that failed."""
    bad = 0
    for workload in workloads:
        print(f"timed pairs: {workload}, {pairs} at --seconds "
              f"{RUN_SECONDS:g}", flush=True)
        results = []
        for index in range(pairs):
            seed = seeds[index % len(seeds)]
            order = [("base", base_tree), ("work", ROOT)]
            if index % 2:
                order.reverse()
            runs = {
                side: run_once(tree, workload, seed, 0, RUN_SECONDS)
                for side, tree in order
            }
            base, work = runs["base"], runs["work"]
            if base.error or work.error or base.failed or work.failed:
                bad += 1
                detail = f"FAILED {_show(base)} / {_show(work)}"
            else:
                results.append((base.metrics, work.metrics))
                detail = " ".join(
                    f"{name}={base.metrics[name]:.4g}/"
                    f"{work.metrics[name]:.4g}"
                    for name, _ in END_TO_END
                )
            print(f"  pair {index + 1} seed={seed} first={order[0][0]}  "
                  f"{detail}", flush=True)
        if results:
            for line in format_summary(summarize_pairs(results)):
                print(line)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base = parser.add_mutually_exclusive_group()
    base.add_argument("--base", default="HEAD",
                      help="git revision to compare against (HEAD)")
    base.add_argument("--base-tree",
                      help="compare against this existing checkout "
                           "instead of checking a revision out")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (all)")
    parser.add_argument("--seeds", default="1-10",
                        help="seeds, e.g. 1-10 or 3,5 (1-10)")
    parser.add_argument("--trace", default="0,1",
                        help="--trace modes to run (0,1)")
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="perfbench --seconds per digest run (1)")
    parser.add_argument("--pairs", type=int, default=0,
                        help="timed pairs per workload after the digest "
                             "check (0)")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; expected {WORKLOADS}")
    seeds = parse_ints(args.seeds)
    traces = parse_ints(args.trace)
    if not set(traces) <= {0, 1}:
        parser.error("--trace takes 0 and/or 1")

    if args.pairs < 0:
        parser.error("--pairs takes a count >= 0")

    if args.base_tree:
        return check(os.path.abspath(args.base_tree), args.base_tree,
                     workloads, seeds, traces, args)
    tmp_dir = tempfile.mkdtemp(prefix="compare-digests-")
    base_tree = os.path.join(tmp_dir, "base")
    subprocess.run(
        ["git", "worktree", "add", "--detach", "--quiet", base_tree,
         args.base],
        cwd=ROOT, check=True,
    )
    try:
        return check(base_tree, args.base, workloads, seeds, traces, args)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", base_tree],
            cwd=ROOT, check=True,
        )
        os.rmdir(tmp_dir)


def check(base_tree: str, label: str, workloads: List[str],
          seeds: List[int], traces: List[int],
          args: argparse.Namespace) -> int:
    """The digest check, then (all matching) the timed pairs."""
    bad = compare(base_tree, workloads, seeds, traces, args.seconds)
    total = len(workloads) * len(seeds) * len(traces)
    print(f"{total - bad}/{total} pairs match {label}")
    if bad:
        return 1
    if args.pairs and time_pairs(base_tree, workloads, seeds, args.pairs):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
