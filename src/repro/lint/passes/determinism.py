"""Determinism pass: same seed must mean same bytes.

Both simulators promise byte-identical event logs under the same seed
(the reproduction's core claim), so any ambient-entropy source in
library code is a reproducibility bug:

* ``DET001`` — unseeded RNG constructors (``random.Random()``,
  ``np.random.default_rng()``) seed from the OS;
* ``DET002`` — module-level ``random.*`` calls (and
  ``from random import shuffle``-style imports) share mutable global
  state across callers and test orderings;
* ``DET003`` — wall-clock reads (``time.time`` / ``time.perf_counter``
  / ``datetime.now``) differ run to run;
* ``DET004`` — iterating a set literal or ``set(...)`` value: string
  hashing is salted per process, so the order changes across runs;
* ``DET005`` — builtin ``hash()`` (salted for the same reason; use a
  stable digest such as ``zlib.crc32``) and ``id()`` (a memory address,
  different in every process).

A helper that reads one of these sources and hands the value to an
event emission three calls away is caught here too: the finding sits
at the source, wherever the value ends up.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.astutil import call_name
from repro.lint.engine import LintPass, SourceFile
from repro.lint.findings import Finding

#: RNG constructors that must receive an explicit seed.
_RNG_CONSTRUCTORS = {
    "random.Random",
    "random.SystemRandom",
    "np.random.default_rng",
    "numpy.random.default_rng",
    "default_rng",
}

#: ``random.<fn>`` calls that mutate the interpreter-global RNG.
_GLOBAL_RANDOM_FUNCS = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gauss",
    "getrandbits",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randint",
    "random",
    "randrange",
    "sample",
    "seed",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}

#: Wall-clock callees, matched on the dotted callee name.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
}

#: ``datetime``-family constructors matched on their final attribute,
#: provided the chain mentions datetime/date (so ``frame.now()`` on an
#: unrelated object is not flagged).
_DATETIME_NOW_ATTRS = {"now", "utcnow", "today"}


class DeterminismPass(LintPass):
    """Flag ambient entropy: unseeded RNGs, wall clocks, salted hashes, ids."""

    name = "determinism"
    rules = ("DET001", "DET002", "DET003", "DET004", "DET005")

    docs = {
        "DET001": (
            "random.Random() / np.random.default_rng() with no\n"
            "argument seeds from the OS, so two runs of the simulator\n"
            "diverge immediately. Pass the experiment seed explicitly;\n"
            "every public entry point already threads one."
        ),
        "DET002": (
            "Module-level random.* calls (and `from random import\n"
            "shuffle`-style imports) share one interpreter-global RNG,\n"
            "so unrelated callers and test orderings perturb each\n"
            "other's streams. Thread a seeded random.Random instance\n"
            "through the call chain instead."
        ),
        "DET003": (
            "time.time / perf_counter / monotonic / datetime.now read\n"
            "the wall clock, which differs run to run. Simulation\n"
            "logic must derive every timestamp from the event clock;\n"
            "real-time measurement code (benchmark harnesses, the\n"
            "serve wall-clock driver) suppresses the line with a\n"
            "justification."
        ),
        "DET004": (
            "Iterating a set literal or set(...) value: str/bytes\n"
            "hashing is salted per process, so element order — and\n"
            "everything downstream of it — changes across runs. Use a\n"
            "tuple/list, or wrap in sorted(...)."
        ),
        "DET005": (
            "Builtin hash() is salted per process for str/bytes (see\n"
            "PYTHONHASHSEED), and builtin id() is a memory address\n"
            "that differs in every process, so values derived from\n"
            "either are not reproducible. Use a stable digest such as\n"
            "zlib.crc32, a stable sort key such as repr, or an\n"
            "explicit identifier."
        ),
    }

    def run(self, src: SourceFile) -> List[Finding]:
        """Scan every call / import / loop in the file."""
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(src, node))
            elif isinstance(node, ast.ImportFrom):
                findings.extend(self._check_import(src, node))
            elif isinstance(node, (ast.For, ast.comprehension)):
                findings.extend(self._check_iteration(src, node))
        return findings

    def _check_call(self, src: SourceFile, node: ast.Call) -> List[Finding]:
        name = call_name(node)
        out: List[Finding] = []
        if name is None:
            return out
        if name in _RNG_CONSTRUCTORS and not node.args and not node.keywords:
            out.append(
                src.finding(
                    node,
                    "DET001",
                    f"{name}() is unseeded; pass an explicit seed so "
                    "runs are reproducible",
                )
            )
        parts = name.split(".")
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _GLOBAL_RANDOM_FUNCS
        ):
            out.append(
                src.finding(
                    node,
                    "DET002",
                    f"random.{parts[1]}() uses the global RNG; thread a "
                    "seeded random.Random instance instead",
                )
            )
        if name in _WALL_CLOCK:
            out.append(
                src.finding(
                    node,
                    "DET003",
                    f"{name}() reads the wall clock; simulation logic "
                    "must derive time from the event clock",
                )
            )
        elif parts[-1] in _DATETIME_NOW_ATTRS and any(
            p in ("datetime", "date") for p in parts[:-1]
        ):
            out.append(
                src.finding(
                    node,
                    "DET003",
                    f"{name}() reads the wall clock; simulation logic "
                    "must derive time from the event clock",
                )
            )
        if name == "hash" and len(node.args) == 1:
            out.append(
                src.finding(
                    node,
                    "DET005",
                    "builtin hash() is salted per process for str/bytes; "
                    "use a stable digest (e.g. zlib.crc32) instead",
                )
            )
        elif name == "id" and len(node.args) == 1:
            out.append(
                src.finding(
                    node,
                    "DET005",
                    "builtin id() is a memory address that differs per "
                    "process; use an explicit identifier instead",
                )
            )
        for kw in node.keywords:
            # ``sorted(..., key=hash)`` smuggles the salted hash in as a
            # callable without a direct call.
            if (
                kw.arg == "key"
                and isinstance(kw.value, ast.Name)
                and kw.value.id == "hash"
            ):
                out.append(
                    src.finding(
                        kw.value,
                        "DET005",
                        "builtin hash passed as a sort key is salted per "
                        "process for str/bytes; use a stable key "
                        "(e.g. repr) instead",
                    )
                )
        return out

    def _check_import(
        self, src: SourceFile, node: ast.ImportFrom
    ) -> List[Finding]:
        if node.module != "random":
            return []
        bad = [
            alias.name
            for alias in node.names
            if alias.name in _GLOBAL_RANDOM_FUNCS
        ]
        if not bad:
            return []
        return [
            src.finding(
                node,
                "DET002",
                f"importing {', '.join(bad)} from random binds the "
                "global RNG; import the module and thread a seeded "
                "random.Random instead",
            )
        ]

    def _check_iteration(self, src: SourceFile, node) -> List[Finding]:
        iterable = node.iter
        message = None
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            message = (
                "iterating a set literal: element order is hash-salted "
                "per process; use a tuple/list or sorted(...)"
            )
        elif (
            isinstance(iterable, ast.Call)
            and call_name(iterable) in ("set", "frozenset")
        ):
            message = (
                "iterating a set(...) value: element order is "
                "hash-salted per process; wrap in sorted(...)"
            )
        if message is None:
            return []
        anchor = node if isinstance(node, ast.For) else iterable
        return [src.finding(anchor, "DET004", message)]
