"""Outside-in layer tracing for the benchmark's traced run.

The simulator carries no timers of its own, so this module wraps the
public entry point of each layer from the outside: every call becomes a
span (layer name, start, end, parent = the innermost open span).  Spans
are folded into per-layer accumulators as they close, which keeps memory
flat on runs with millions of calls:

* a layer's *self time* is its span duration minus the time its child
  spans cover (children nest strictly inside the parent on one thread);
* a span with no open parent adds its duration to ``covered_ns``, the
  part of the run that some named layer accounts for.

Wrapping rebinds the class attribute (methods) or every ``repro.*``
module-level name bound to the original function (``from x import f``
copies), so callers resolve to the wrapper without any source change.
Worker processes forked after :func:`install` inherit the wrappers, but
their spans stay in the worker and are not reported.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (layer name, module, attribute path, metric style).  ``"total"``
#: layers report self seconds over the run; ``"per_call"`` layers are
#: hot, cheap entry points and report self nanoseconds per call.
LAYERS = (
    ("sim.run_benchmark", "repro.sim.runner", "run_benchmark", "total"),
    ("sim.run_functional", "repro.sim.functional", "run_functional", "total"),
    ("sim.Simulator.run", "repro.sim.simulator", "Simulator.run", "total"),
    ("workloads.build_workload", "repro.workloads.tracegen",
     "build_workload", "total"),
    ("kernels.warm_up_vector", "repro.kernels.timing", "warm_up_vector",
     "total"),
    ("kernels.prewarm_timed_phase", "repro.kernels.timing",
     "prewarm_timed_phase", "total"),
    ("kernels.simulate_events", "repro.kernels.functional",
     "simulate_events", "total"),
    ("cpu.llc.access", "repro.cpu.cache", "LastLevelCache.access",
     "per_call"),
    ("core.controllers.read_line", "repro.core.controllers",
     ("BaselineController.read_line", "IdealController.read_line",
      "MetadataCacheController.read_line", "AttacheController.read_line"),
     "per_call"),
    ("core.controllers.write_line", "repro.core.controllers",
     ("BaselineController.write_line", "IdealController.write_line",
      "MetadataCacheController.write_line",
      "AttacheController.write_line"),
     "per_call"),
    ("core.copr.predict", "repro.core.copr", "CoprPredictor.predict",
     "per_call"),
    ("core.copr.update", "repro.core.copr", "CoprPredictor.update",
     "per_call"),
    ("core.blem.encode_write", "repro.core.blem", "BlemEngine.encode_write",
     "per_call"),
    ("core.blem.decode_read", "repro.core.blem", "BlemEngine.decode_read",
     "per_call"),
    ("compression.compress", "repro.compression.engine",
     "CompressionEngine.compress", "total"),
    ("compression.is_compressible", "repro.compression.engine",
     "CompressionEngine.is_compressible", "total"),
    ("scramble.scramble", "repro.scramble.scrambler",
     "DataScrambler.scramble", "total"),
    ("dram.issue", "repro.dram.memory_system", "MainMemory.issue", "total"),
    ("dram.advance", "repro.dram.memory_system", "MainMemory.advance",
     "total"),
    ("analysis.regenerate", "repro.analysis.figures", "regenerate",
     "total"),
    ("orchestrator.Orchestrator.run", "repro.orchestrator.pool",
     "Orchestrator.run", "total"),
    ("orchestrator.ResultCache.get", "repro.orchestrator.cache",
     "ResultCache.get", "total"),
    ("orchestrator.ResultCache.put", "repro.orchestrator.cache",
     "ResultCache.put", "total"),
)


class Tracer:
    """Span stack plus per-layer self-time and call accumulators."""

    def __init__(self, names) -> None:
        self.self_ns = dict.fromkeys(names, 0)
        self.calls = dict.fromkeys(names, 0)
        #: [ns covered by spans without a parent]
        self.covered_ns = [0]
        #: one entry per open span, innermost last: the ns its children
        #: have covered so far (the span's name and start live in the
        #: wrapper's frame)
        self._stack = []

    def wrap(self, name, func):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        covered = self.covered_ns
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            start = clock()
            stack.append(0)
            try:
                return func(*args, **kwargs)
            finally:
                duration = clock() - start
                self_ns[name] += duration - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += duration
                else:
                    covered[0] += duration

        return traced


def _rebind_function(module, attr, wrapper, original) -> None:
    setattr(module, attr, wrapper)
    for name, other in list(sys.modules.items()):
        if name.startswith("repro") and other is not None:
            if getattr(other, attr, None) is original:
                setattr(other, attr, wrapper)


def install() -> Tracer:
    """Wrap every layer entry point; returns the live tracer."""
    tracer = Tracer([layer[0] for layer in LAYERS])
    for name, module_name, targets, __ in LAYERS:
        module = importlib.import_module(module_name)
        if isinstance(targets, str):
            targets = (targets,)
        for target in targets:
            owner_name, __, attr = target.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
            else:
                original = getattr(module, attr)
                _rebind_function(
                    module, attr, tracer.wrap(name, original), original
                )
    return tracer


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer self time, calls and share of the traced wall time."""
    metrics = {}
    wall_ns = wall_s * 1e9
    for name, __, __, style in LAYERS:
        self_ns = tracer.self_ns[name]
        calls = tracer.calls[name]
        if style == "per_call":
            metrics[f"{name}.self_ns"] = self_ns / calls if calls else 0.0
        else:
            metrics[f"{name}.self_s"] = self_ns / 1e9
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.share"] = self_ns / wall_ns if wall_ns else 0.0
    metrics["trace.covered_share"] = (
        tracer.covered_ns[0] / wall_ns if wall_ns else 0.0
    )
    return metrics
