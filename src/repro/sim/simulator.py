"""A cycle-accurate simulator for Calyx netlists.

The paper validates designs with a cocotb harness driving Verilog through an
RTL simulator; this module is the equivalent substrate.  It executes the
Calyx programs produced by Filament's backend (or hand-built netlists from
the generator substrates) with standard two-phase clocked semantics:

1. **settle** — propagate values through guarded assignments and
   combinational primitive outputs; the execution plan is a levelized
   schedule precompiled by :class:`~repro.sim.engine.ScheduledEngine` (a
   bounded sweep loop remains as the fallback for genuinely cyclic regions,
   turning unsettled combinational loops into
   :class:`~repro.core.errors.SimulationError`);
2. **tick** — advance every sequential primitive's registered state using the
   values present during the cycle.

Hierarchy is supported directly: a cell whose component is not a primitive
is simulated by a nested engine, which keeps compiled user components
(e.g. ``conv2d`` instantiating ``Stencil``) runnable without a flattening
pass.

Conflicting drivers — two simultaneously-active guarded assignments driving
different values onto one port — raise :class:`SimulationError`.  Filament's
type system guarantees this cannot happen for compiled programs; the error
path exists to catch bugs in hand-written netlists and is exercised by the
test suite.

:class:`Simulator` is the stable public API (``step``/``peek``/``outputs``/
``reset``/``run_batch``); it is the scheduled engine with the historical
name.  Pass ``mode="fixpoint"`` to force the reference sweep-loop semantics
(used by the differential tests and the before/after benchmarks),
``mode="compiled"`` to execute through a specialized Python kernel
generated from the schedule (:mod:`repro.sim.codegen`), with automatic
fallback to the scheduled interpreter for netlists codegen cannot handle
(the reason is recorded in
:attr:`~repro.sim.engine.ScheduledEngine.kernel_fallback_reason`), or
``mode="native"`` to execute through a C kernel compiled from the same
schedule (:mod:`repro.sim.native`) — the fastest tier.  The full chain is
native → compiled → scheduled → fixpoint and semantics never fork: each
tier falls back to the next with a recorded reason
(:attr:`~repro.sim.engine.ScheduledEngine.native_fallback_reason`) when a
netlist is ineligible — black-box primitives, values wider than 256 bits
(65–256-bit signals spill to multi-limb ``uint64_t`` slots) — or the host
has no C compiler.  Under ``mode="native"`` every batch runs through the
one C entry ``k_run_lanes``: a scalar run is one lane over the engine's
own state, and a lane batch (``run_lanes``) runs each stream's netlist
pass in turn with one Python↔C crossing per batch.  Everywhere else, and
when the native tier is unavailable (reason in
:attr:`~repro.sim.engine.ScheduledEngine.native_lanes_fallback_reason`),
lane batches are N scalar runs on the engine's own tier, each from a
fresh reset.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..calyx.ir import CalyxProgram
from .engine import _MAX_SWEEPS, ScheduledEngine, SimulatorMode
from .values import Value

__all__ = ["Simulator", "run_trace"]


class Simulator(ScheduledEngine):
    """Simulates one component of a :class:`CalyxProgram`.

    See :class:`~repro.sim.engine.ScheduledEngine` for the execution model;
    this subclass only pins down the public name relied on throughout the
    repository and the paper-facing docs.
    """


def run_trace(program: CalyxProgram, stimuli: List[Dict[str, Value]],
              component: Optional[str] = None,
              mode: SimulatorMode = "auto") -> List[Dict[str, Value]]:
    """Convenience driver: apply one dict of input values per cycle and
    return the per-cycle output dicts."""
    return Simulator(program, component, mode=mode).run_batch(stimuli)
