"""Findings and the rule catalogue.

A :class:`Finding` is one diagnostic: ``(file, line, rule-id, message)``.
Rule ids are stable, grep-able handles (``DET001``, ``UNI002``, ...);
the catalogue below is the single source of truth for which ids exist
and what they mean — ``docs/LINT.md`` documents the same table for
humans, and the CLI's ``--list-rules`` prints it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

#: Every rule id with its one-line description, grouped by pass prefix.
#: ``DET`` — determinism, ``UNI`` — units, ``FLT`` — float equality,
#: ``OBS`` — event-schema conformance and event scoping, ``POL`` —
#: policy interface, ``PERF`` — vectorization, ``PAR`` — the engine's
#: own parse-failure diagnostic, and ``XUNI`` — unit inference across
#: project calls.
RULES: Dict[str, str] = {
    "PAR001": "file could not be parsed as Python source",
    "DET001": "unseeded RNG constructor (random.Random() / "
    "np.random.default_rng() with no seed)",
    "DET002": "use of the global `random` module state (module-level "
    "calls or `from random import <function>`)",
    "DET003": "wall-clock read (time.time / time.perf_counter / "
    "datetime.now) in simulation code",
    "DET004": "iteration over a set literal / set() value "
    "(order is salted per process)",
    "DET005": "builtin hash() / id() (per-process values: a salted "
    "str/bytes hash, a memory address)",
    "UNI001": "magic unit-conversion constant outside repro.units "
    "(e.g. * 1024, * 125.0, / 8, / 60.0)",
    "UNI002": "public numeric parameter with a non-canonical unit "
    "suffix (use _mb / _mbps / _s / _gpus)",
    "FLT001": "== / != between float-typed expressions "
    "(event-time and unit-carrying values)",
    "OBS001": "emitted event type is not declared in repro.obs.events",
    "OBS002": "emitted event fields do not match the declared schema",
    "OBS004": "scope-restricted event emitted, or wrapped by a direct "
    "call, outside its home (SERVICE_TYPES: repro/serve/; "
    "SIMULATOR_SCOPED_TYPES: repro/sim/)",
    "POL001": "policy class does not implement the SchedulingPolicy "
    "interface (schedule() and a `name` attribute)",
    "POL002": "policy module imports simulator internals (repro.sim)",
    "POL003": "policy code reaches into another object's private "
    "attributes",
    "POL004": "heterogeneity-aware policy never publishes per-generation "
    "scores (ScheduleContext.gen_scores)",
    "POL005": "pure_round policy reads now_s or attained_service_s "
    "(a reused round never sees them)",
    "PERF001": "per-item Python loop over cache state in a module that "
    "imports repro.sim or repro.cache (use the store's bulk APIs)",
    "PERF002": "two-argument builtin min()/max() in a module the "
    "scheduling round runs per job (write the comparison)",
    "XUNI001": "mixed-unit arithmetic/comparison or suffix-mismatched "
    "assignment (units inferred across project calls)",
    "XUNI002": "argument's inferred unit does not match the callee "
    "parameter's declared unit (suffix or repro.units signature)",
}


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a lint pass.

    ``path`` is repo-relative (POSIX separators) so findings are stable
    across machines; ``line`` is 1-based. Findings sort by
    ``(path, line, rule, message)``, which gives reports a deterministic
    order.
    """

    path: str
    line: int
    rule: str
    message: str

    def to_dict(self) -> dict:
        """JSON-safe representation (used by ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        """The human-readable one-liner: ``path:line: RULE message``."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"
