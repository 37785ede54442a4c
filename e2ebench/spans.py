"""Per-layer span tracing, installed from outside the program.

The traced run wraps the public entry point of each layer of the ``repro``
stack.  Every wrapped call is a span; a layer's *self time* is the summed
duration of its spans minus the part covered by spans nested inside them
(of any layer), so the layers' self times add up to the time spent inside
the outermost spans without double counting.  Garbage-collector pauses are
recorded separately through :data:`gc.callbacks`; they fall inside whatever
span was running and are not subtracted from it.

Nothing here is imported by the untraced run, so end-to-end figures carry
no wrapper cost.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from typing import Callable, Dict, List, Tuple

#: ``(layer, module, attribute)`` for every entry point that is wrapped.
#: A layer reached through several names (``from x import f`` binds its own
#: name in the importing module) lists each alias, so every caller's path
#: goes through a wrapper.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("fuzz.stimulus", "repro.harness.fuzz", "random_transactions"),
    ("fuzz.stimulus", "repro.harness", "random_transactions"),
    ("fuzz.stimulus", "repro.conformance.differential", "random_transactions"),
    ("fuzz.check", "repro.harness.fuzz", "fuzz_against_golden"),
    ("fuzz.check", "repro.harness", "fuzz_against_golden"),
    ("harness.build", "repro.harness.driver", "harness_for"),
    ("harness.build", "repro.harness", "harness_for"),
    ("harness.build", "repro.conformance.differential", "harness_for"),
    ("driver", "repro.harness.driver", "CycleAccurateHarness.run"),
    ("driver", "repro.harness.driver", "CycleAccurateHarness.run_lanes"),
    ("native.run", "repro.sim.engine", "ScheduledEngine.run_columns"),
    ("native.run", "repro.sim.engine", "ScheduledEngine.run_lane_columns"),
    ("native.build", "repro.sim.native", "native_for"),
    ("codegen", "repro.sim.codegen", "kernel_for"),
    ("codegen", "repro.sim.engine", "ScheduledEngine.prepare"),
    ("engine.build", "repro.sim.engine", "ScheduledEngine.__init__"),
    ("sim.run", "repro.sim.engine", "ScheduledEngine.run_batch"),
    ("sim.run", "repro.sim.engine", "ScheduledEngine.run_lanes"),
    ("session.calyx", "repro.core.session", "CompilationSession.calyx"),
    ("session.verilog", "repro.core.session", "CompilationSession.verilog"),
    ("generator", "repro.conformance.generator", "generate"),
    ("reimport", "repro.conformance.differential", "roundtrip_divergences"),
    ("conformance", "repro.conformance.differential", "run_conformance"),
)

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for layer, _, _ in ENTRY_POINTS))


class Tracer:
    """Span and counter recorder over :data:`ENTRY_POINTS`.

    :meth:`install` patches the entry points, :meth:`uninstall` restores
    the originals; :meth:`snapshot` returns cumulative totals, so a region
    is measured as the difference of two snapshots."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls: Dict[str, int] = {}
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._stack: List[List[int]] = []
        self._gc_start = 0
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, span: str, function: Callable) -> Callable:
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        calls.setdefault(span, 0)
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    def install(self) -> None:
        if self._restore:
            return
        # Import every module first: a module imported after a patch would
        # bind the wrapper by ``from x import f`` and keep it after
        # :meth:`uninstall`.
        modules = {name: importlib.import_module(name)
                   for _, name, _ in ENTRY_POINTS}
        for layer, module_name, attribute in ENTRY_POINTS:
            owner: object = modules[module_name]
            name = attribute
            if "." in attribute:
                class_name, name = attribute.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[name]
            else:
                original = getattr(owner, name)
            self._restore.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, attribute, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def snapshot(self) -> dict:
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "gc_pause_ns": self.gc_pause_ns,
                "gc_collections": self.gc_collections}


def difference(after: dict, before: dict) -> dict:
    """``after - before`` for two :meth:`Tracer.snapshot` results."""
    return {
        "self_ns": {layer: after["self_ns"][layer]
                    - before["self_ns"].get(layer, 0)
                    for layer in after["self_ns"]},
        "calls": {span: count - before["calls"].get(span, 0)
                  for span, count in after["calls"].items()},
        "gc_pause_ns": after["gc_pause_ns"] - before["gc_pause_ns"],
        "gc_collections": after["gc_collections"]
        - before["gc_collections"],
    }
