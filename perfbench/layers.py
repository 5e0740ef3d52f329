"""Per-layer tracing from outside the program.

:func:`install` replaces public functions and methods of ``repro.sim``,
``repro.core``, ``repro.cache``, ``repro.faults``, ``repro.obs``,
``repro.serve`` and ``repro.workloads`` with wrappers that record a span
(name, start, end, parent) or bump a counter; :func:`restore` puts every
original object back. Nothing under ``src/`` is edited: the wrappers are
set as attributes on the defining class or module, and on every loaded
module that imported a function by name.

Spans live in four flat arrays while the run is going and are summarised
(and optionally written out) when it ends. A span's *self* time is its
duration minus the durations of its direct children; calls nest strictly,
so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer name, kind). ``span`` records timing,
#: ``count`` only counts calls. Several targets may share one name (the
#: two simulators' ``step``); their spans pool.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.fluid", "FluidSimulator.step", "sim.step", "span"),
    ("repro.sim.minibatch", "MinibatchEmulator.step", "sim.step", "span"),
    ("repro.sim.jobtable", "JobTable.advance", "sim.jobtable.advance", "span"),
    ("repro.sim.jobtable", "JobTable.next_completion_time",
     "sim.jobtable.next_completion_time", "span"),
    ("repro.sim.jobtable", "JobTable.next_epoch_boundary_time",
     "sim.jobtable.next_epoch_boundary_time", "span"),
    ("repro.sim.jobtable", "JobTable.set_generation",
     "sim.jobtable.set_generation", "count"),
    ("repro.core.silod", "SiloDScheduler.schedule", "core.schedule", "span"),
    ("repro.core.policies.greedy", "greedy_cache_allocation",
     "core.greedy_storage", "span"),
    ("repro.core.estimator", "SiloDPerfEstimator.compute_bound_batch",
     "core.estimator.compute_bound_batch", "span"),
    ("repro.core.estimator", "SiloDPerfEstimator.compute_bound",
     "core.estimator.compute_bound", "count"),
    ("repro.cache.base", "CacheSystem.reallocate", "cache.reallocate", "span"),
    ("repro.cache.residency", "DictResidencyStore.run_fill_plan",
     "cache.residency.run_fill_plan", "span"),
    ("repro.cache.residency", "ArrayResidencyStore.run_fill_plan",
     "cache.residency.run_fill_plan", "span"),
    ("repro.cache.items", "UniformItemCache.__contains__",
     "cache.items", "hits"),
    ("repro.cache.items", "LruItemCache.access", "cache.items", "hits"),
    ("repro.faults.injector", "FaultInjector.apply", "faults.apply", "span"),
    ("repro.faults.injector", "FaultInjector.select_victims",
     "faults.preemptions", "length"),
    ("repro.obs.tracer", "Tracer.emit", "obs.emit", "span"),
    ("repro.obs.tracer", "NullTracer.emit", "obs.emit", "span"),
    ("repro.obs.stream", "StreamingTracer.emit", "obs.emit", "span"),
    ("repro.obs.prov", "emit_decision_provenance", "obs.prov.decision", "span"),
    ("repro.obs.slo", "SLOTracker.check", "obs.slo.check", "span"),
    ("repro.serve.protocol", "parse_request", "serve.protocol.parse", "span"),
    ("repro.serve.protocol", "encode_response", "serve.protocol.encode", "span"),
    ("repro.serve.engine", "OnlineEngine.submit", "serve.engine.submit", "span"),
    ("repro.serve.engine", "OnlineEngine.clock_op",
     "serve.engine.clock_op", "span"),
    ("repro.serve.engine", "OnlineEngine.pump", "serve.engine.pump", "span"),
    ("repro.serve.engine", "OnlineEngine.status", "serve.engine.status", "span"),
    ("repro.serve.engine", "OnlineEngine.metrics",
     "serve.engine.metrics", "span"),
    ("repro.workloads.trace", "generate_trace",
     "workloads.generate_trace", "span"),
)


class Recorder:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap_span(self, name: str, fn: Callable,
                  after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``after(result, args)``
        may bump counters from the call's arguments and result."""
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def wrap_count(self, name: str, fn: Callable,
                   kind: str = "count") -> Callable:
        """``fn`` bumping ``<name>.calls`` (``count``), ``<name>.accesses``
        and ``<name>.hits`` (``hits``) or ``<name>`` by ``len(result)``
        (``length``)."""
        counters = self.counters
        if kind == "hits":
            key_calls, key_hits = f"{name}.accesses", f"{name}.hits"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters[key_calls] += 1
                if result:
                    counters[key_hits] += 1
                return result
        elif kind == "length":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters[name] += len(result)
                return result
        else:
            key_calls = f"{name}.calls"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[key_calls] += 1
                return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Per name: ``.calls``, ``.s`` (inclusive) and ``.self_s``."""
        n = len(self.span_name)
        child_s = [0.0] * n
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_s[parent] += durations[i]
        out: Dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += durations[i]
            out[f"{name}.self_s"] += durations[i] - child_s[i]
        out.update(self.counters)
        return dict(out)

    def write(self, path: str) -> None:
        """Write every span: a JSON header line naming the span names and
        columns, then the name, parent, start and end columns as raw
        native arrays (a parent of -1 marks a root span)."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "columns": ["name:i32", "parent:i32", "start:f64", "end:f64"],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(handle)


def _after_schedule(recorder: Recorder) -> Callable:
    counters = recorder.counters

    def after(result, args) -> None:
        counters["core.schedule.jobs"] += len(args[1])

    return after


def _after_pump(recorder: Recorder) -> Callable:
    counters = recorder.counters

    def after(result, args) -> None:
        counters["serve.engine.pump.steps"] += result

    return after


_AFTER = {"core.schedule": _after_schedule, "serve.engine.pump": _after_pump}

Patch = Tuple[object, str, object]


def install(recorder: Recorder) -> List[Patch]:
    """Wrap every target; returns the patches :func:`restore` undoes."""
    patches: List[Patch] = []
    for module_name, path, name, kind in TARGETS:
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        # A static or class method is wrapped inside its descriptor, so
        # it is still called without (or with) the class, as before.
        descriptor = type(original) if isinstance(
            original, (staticmethod, classmethod)) else None
        fn = original.__func__ if descriptor else original
        if kind == "span":
            after = _AFTER[name](recorder) if name in _AFTER else None
            wrapper = recorder.wrap_span(name, fn, after)
        else:
            wrapper = recorder.wrap_count(name, fn, kind)
        if descriptor:
            wrapper = descriptor(wrapper)
        patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if not isinstance(owner, type):
            # Module-level function: rebind it wherever it was imported
            # by name (``from repro.x import f``).
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if (mod is not owner and namespace is not None
                        and namespace.get(attr) is original):
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    return patches


def restore(patches: List[Patch]) -> None:
    """Undo :func:`install` (last patch first)."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def installed(patches: List[Patch]) -> List[str]:
    """Targets still wrapped (empty after a clean :func:`restore`)."""
    left = []
    for owner, attr, original in patches:
        current = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr)
        if current is not original:
            left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return left
