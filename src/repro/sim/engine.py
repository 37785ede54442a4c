"""A compiled, scheduled simulation engine for Calyx netlists.

The original :class:`~repro.sim.simulator.Simulator` is a naive fixpoint
interpreter: every cycle it sweeps *all* primitives, children and guarded
assignments until nothing changes, rebuilding its per-destination driver
grouping on every sweep.  For the deeply pipelined designs the evaluation
drives through thousands of cycles that is a large constant-factor tax.

:class:`ScheduledEngine` compiles the netlist once, at construction:

* the guarded assignments are grouped by destination port a single time
  (the grouping used to be rebuilt per sweep);
* every evaluation obligation — a primitive's combinational function, a
  child component instance, or one destination's driver group — becomes a
  *node* whose combinational dependencies are known statically (primitives
  declare theirs via :attr:`PrimitiveModel.combinational_inputs`);
* the nodes are levelized into a topological **schedule**; a settle is then
  a single pass over the schedule instead of an iterated fixpoint.

Topological evaluation computes exactly the least fixpoint the sweep loop
converges to, because every value is monotone during a cycle (signals only
refine from ``X`` to a concrete value while the inputs are held).  When the
dependency graph is genuinely cyclic — combinational loops, or feedback
through a child instance — the engine keeps the original bounded sweep loop
as a fallback for that component, so behaviour (including the
``SimulationError`` on unsettled loops and X-stabilised loops) is unchanged.

Child instances conservatively depend on *all* of their input ports, not
just the combinationally-relevant ones: the child's sequential ``tick`` uses
the input values its last settle saw, so every input must be final before
the child node runs.

On top of ``step``, :meth:`ScheduledEngine.run_batch` executes a whole
stimulus list with the per-cycle input validation hoisted out of the loop —
the fast path used by the cycle-accurate harness for pipelined transaction
streams.

:meth:`ScheduledEngine.run_lanes` runs N *independent* stimulus streams
and returns one trace per stream, each trace-identical to a scalar
``run_batch`` of that stream on a freshly reset engine.

``mode="compiled"`` adds the next tier: the levelized schedule is compiled
once into a specialized straight-line Python kernel
(:mod:`repro.sim.codegen`, cached process-wide by netlist digest) and
``step``/``run_batch``/``run_lanes`` execute through it — with automatic
fallback to the interpreter tiers for netlists codegen cannot handle, so
semantics never fork (:attr:`ScheduledEngine.kernel_fallback_reason`
records why).

``mode="native"`` adds the top tier: the same schedule is emitted as C
(:mod:`repro.sim.native`), compiled with the host C compiler and driven
through :mod:`ctypes`.  The chain is native → compiled → scheduled →
fixpoint: a netlist the C tier cannot represent (black boxes, >256-bit
values) or a host without a compiler falls back to the compiled-Python
kernel with the reason recorded in
:attr:`ScheduledEngine.native_fallback_reason`.  Scalar batches
(``run_batch``/``step``, plus the columnar :meth:`ScheduledEngine.run_columns`
fast path) run natively, and ``run_lanes`` runs on the native **lane
entry** (``k_run_lanes``): N independent streams per netlist pass through
lane-major-within-port columnar buffers, one Python↔C crossing per batch
(plus the raw columnar :meth:`ScheduledEngine.run_lane_columns` fast
path).  Without the lane entry, ``run_lanes`` makes one scalar run per
stream on the engine's own tier, with the reason recorded in
:attr:`ScheduledEngine.native_lanes_fallback_reason`.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..calyx.ir import Assignment, CalyxComponent, CalyxProgram, Cell, CellPort
from ..core.errors import DriverConflictError, SimulationError
from .primitives import PrimitiveModel, create_primitive, is_primitive
from .values import Value, X, format_value, is_x

__all__ = ["ScheduledEngine", "SimulatorMode", "_MAX_SWEEPS"]

#: Sentinel for "no driver is active or possibly active" — the destination
#: port keeps whatever value it already had.
_UNDRIVEN = object()

#: Upper bound on settle sweeps before declaring a combinational loop
#: (fallback path only; the scheduled path needs a single pass).
_MAX_SWEEPS = 200

#: Engine selection: ``"auto"`` builds a schedule and falls back to the
#: sweep loop only for cyclic components; ``"fixpoint"`` forces the sweep
#: loop everywhere (the reference semantics, kept for differential testing);
#: ``"compiled"`` additionally generates a specialized Python kernel from
#: the schedule (:mod:`repro.sim.codegen`) and automatically falls back to
#: the scheduled interpreter when codegen is unavailable for a netlist;
#: ``"native"`` sits one tier above ``"compiled"``: the schedule is emitted
#: as C (:mod:`repro.sim.native`) with automatic fallback down the same
#: chain.
SimulatorMode = str

_PRIM = 0
_CHILD = 1
_GROUP = 2

#: A signal key: ``(cell_name_or_None, port_name)``.
_Key = Tuple[Optional[str], str]


class _PrimNode:
    """A primitive cell with its port keys interned once.

    ``in_items``/``out_items`` pair each port name with its prebuilt
    ``(cell, port)`` key, so neither the scheduled pass nor the sweep
    fallback re-allocates key tuples on every cycle.
    """

    __slots__ = ("cell", "model", "in_items", "out_keys")

    def __init__(self, cell: str, model: PrimitiveModel) -> None:
        self.cell = cell
        self.model = model
        self.in_items: Tuple[Tuple[str, _Key], ...] = tuple(
            (port, (cell, port)) for port in model.inputs)
        self.out_keys: Dict[str, _Key] = {
            port: (cell, port) for port in model.outputs}


class _ChildNode:
    """A child component instance with its port keys interned once."""

    __slots__ = ("cell", "engine", "in_items", "out_items")

    def __init__(self, cell: str, engine: "ScheduledEngine") -> None:
        self.cell = cell
        self.engine = engine
        self.in_items: Tuple[Tuple[str, _Key], ...] = tuple(
            (port, (cell, port)) for port in engine._input_names)
        self.out_items: Tuple[Tuple[str, _Key], ...] = tuple(
            (port, (cell, port))
            for port in engine.component.output_names())


class _CompiledAssign:
    """One guarded assignment with its ports pre-resolved to value keys."""

    __slots__ = ("assignment", "guard_keys", "src_key", "src_const")

    def __init__(self, assignment: Assignment) -> None:
        self.assignment = assignment
        # ``None`` means the always-true guard.
        self.guard_keys: Optional[Tuple[_Key, ...]] = (
            None if assignment.guard.always
            else tuple((p.cell, p.port) for p in assignment.guard.ports)
        )
        if isinstance(assignment.src, int):
            self.src_key: Optional[_Key] = None
            self.src_const: Value = assignment.src
        else:
            self.src_key = (assignment.src.cell, assignment.src.port)
            self.src_const = X


class _DriverGroup:
    """All assignments driving one destination port, grouped once."""

    __slots__ = ("dst", "dst_key", "assigns")

    def __init__(self, dst: CellPort, assigns: List[_CompiledAssign]) -> None:
        self.dst = dst
        self.dst_key: _Key = (dst.cell, dst.port)
        self.assigns = assigns


class ScheduledEngine:
    """Simulates one component of a :class:`CalyxProgram` from a
    precompiled evaluation schedule."""

    def __init__(self, program: CalyxProgram,
                 component: Optional[str] = None,
                 mode: SimulatorMode = "auto") -> None:
        if mode not in ("auto", "fixpoint", "compiled", "native"):
            raise SimulationError(f"unknown simulator mode {mode!r}")
        self.program = program
        self.mode = mode
        name = component if component is not None else program.entrypoint
        if name is None:
            raise SimulationError("no component selected for simulation")
        self.component: CalyxComponent = program.get(name)
        self._primitives: Dict[str, PrimitiveModel] = {}
        self._children: Dict[str, ScheduledEngine] = {}
        for cell in self.component.cells:
            if is_primitive(cell.component):
                self._primitives[cell.name] = create_primitive(
                    cell.component, cell.params)
            elif cell.component in program:
                self._children[cell.name] = type(self)(
                    program, cell.component, mode=mode)
            else:
                raise SimulationError(
                    f"{self.component.name}: cell {cell.name} instantiates "
                    f"unknown component {cell.component!r}"
                )
        self._input_names = tuple(self.component.input_names())
        self._input_set = frozenset(self._input_names)

        # Port keys interned once per cell: every evaluation path (scheduled,
        # sweep fallback, tick) reuses these item tuples instead of
        # rebuilding ``(cell, port)`` tuples cycle after cycle.
        self._prim_nodes: List[_PrimNode] = [
            _PrimNode(cell, model) for cell, model in self._primitives.items()
        ]
        self._child_nodes: List[_ChildNode] = [
            _ChildNode(cell, child) for cell, child in self._children.items()
        ]
        #: Per input port, the mask of its declared width (``run_lanes``
        #: truncates every stream's inputs to it).
        self._input_masks: Dict[str, int] = {
            port.name: (1 << port.width) - 1 for port in self.component.inputs
        }

        # Kernel-codegen state (mode="compiled"/"native"); the kernel is
        # built lazily on the first run so construction stays cheap and
        # children (which are only ever driven through their parent) never
        # compile one.  mode="native" also enables this tier: it is the
        # first fallback below the C kernel.
        self._compile_requested = mode in ("compiled", "native")
        self._kernel = None
        self._kernel_program = None
        self._kernel_attempted = False
        self._kernel_used = False
        self._kernel_from_cache = False
        self._kernel_build_seconds = 0.0
        #: Why ``mode="compiled"`` fell back to the interpreter (``None``
        #: while the generated kernel runs, or when codegen was not asked).
        self.kernel_fallback_reason: Optional[str] = None

        # Native-tier state (mode="native"): the C kernel sits above the
        # compiled-Python kernel in the fallback chain
        # native → compiled → scheduled → fixpoint.
        self._native_requested = mode == "native"
        self._native = None
        self._native_program = None
        self._native_attempted = False
        self._native_used = False
        self._native_from_cache = False
        self._native_build_seconds = 0.0
        #: Why ``mode="native"`` fell back to the compiled-Python tier (or
        #: further): ``native(...)`` for C-tier ineligibility/compiler
        #: problems, ``interpreter(...)`` when even the schedule is out.
        self.native_fallback_reason: Optional[str] = None
        # Last-run lane-path markers: whether the most recent lane batch
        # executed through the native lane entry, and if not, why.  Set by
        # run_lanes/run_lane_columns; deliberately *not* cleared by reset()
        # (run_lanes resets the engine on exit, and callers read the
        # markers afterwards).
        self._native_lanes_used = False
        #: Why the most recent lane batch did not run on the native lane
        #: entry (``None`` after a native-lane run, or before any lane run).
        self.native_lanes_fallback_reason: Optional[str] = None

        # Driver grouping, computed once (the fixpoint interpreter used to
        # rebuild this dictionary on every sweep of every cycle).
        by_dst: Dict[CellPort, List[_CompiledAssign]] = {}
        for wire in self.component.wires:
            by_dst.setdefault(wire.dst, []).append(_CompiledAssign(wire))
        self._groups: List[_DriverGroup] = [
            _DriverGroup(dst, assigns) for dst, assigns in by_dst.items()
        ]

        #: Why the sweep fallback is in effect (``None`` while the levelized
        #: schedule runs): ``"mode=fixpoint"``, ``"duplicate-definition"``,
        #: ``"input-shadowing"``, ``"self-loop"`` or ``"combinational-cycle"``.
        self.fallback_reason: Optional[str] = None
        if mode == "fixpoint":
            self.fallback_reason = "mode=fixpoint"
            self._schedule: Optional[List[Tuple[int, object]]] = None
        else:
            self._schedule = self._build_schedule()

        #: Current values of every (cell, port) pair; ``None`` cell means the
        #: component's own ports.
        self._values: Dict[_Key, Value] = {}
        self.cycle = 0
        self.reset()

    # -- schedule construction -------------------------------------------------

    @property
    def is_scheduled(self) -> bool:
        """Whether this component settles via the levelized schedule (the
        sweep-loop fallback is in effect otherwise)."""
        return self._schedule is not None

    def scheduled_everywhere(self) -> bool:
        """Whether this component *and every child, recursively* run on the
        levelized schedule."""
        return self.is_scheduled and all(
            child.scheduled_everywhere() for child in self._children.values()
        )

    def fallback_reasons(self) -> Dict[str, str]:
        """Component name → why the sweep fallback is in effect, collected
        recursively; empty when everything runs on the levelized schedule."""
        reasons: Dict[str, str] = {}
        if not self.is_scheduled and self.fallback_reason is not None:
            reasons[self.component.name] = self.fallback_reason
        for child in self._children.values():
            reasons.update(child.fallback_reasons())
        return reasons

    def _build_schedule(self) -> Optional[List[Tuple[int, object]]]:
        """Levelize the netlist into a topological evaluation order, or
        return ``None`` (recording :attr:`fallback_reason`) when the
        combinational dependency graph is cyclic (or otherwise irregular)
        and the sweep fallback must be used."""
        nodes: List[Tuple[int, object]] = []
        defines: List[Tuple[_Key, ...]] = []
        depends: List[Tuple[_Key, ...]] = []

        for node in self._prim_nodes:
            model = node.model
            comb = model.combinational_inputs
            if comb is None:
                comb = model.inputs
            nodes.append((_PRIM, node))
            defines.append(tuple(node.out_keys.values()))
            depends.append(tuple((node.cell, port) for port in comb))

        for child_node in self._child_nodes:
            # All inputs, not just combinationally-relevant ones: the child's
            # tick reads the inputs of its last settle.
            nodes.append((_CHILD, child_node))
            defines.append(tuple(key for _, key in child_node.out_items))
            depends.append(tuple(key for _, key in child_node.in_items))

        for group in self._groups:
            nodes.append((_GROUP, group))
            defines.append((group.dst_key,))
            depends.append(tuple(
                key
                for assign in group.assigns
                for key in (assign.guard_keys or ()) +
                           ((assign.src_key,) if assign.src_key else ())
            ))

        # Map each signal to its unique defining node; duplicate or
        # input-shadowing definitions are irregular netlists -> fallback.
        defined_by: Dict[_Key, int] = {}
        for index, keys in enumerate(defines):
            for key in keys:
                if key in defined_by:
                    self.fallback_reason = "duplicate-definition"
                    return None
                if key[0] is None and key[1] in self._input_set:
                    self.fallback_reason = "input-shadowing"
                    return None
                defined_by[key] = index

        # Kahn's algorithm over node-level edges, preserving declaration
        # order among ready nodes for determinism.  The ready set is a deque
        # (FIFO popleft keeps the declaration order) — a list's ``pop(0)``
        # made schedule construction O(n²) in node count.
        successors: List[List[int]] = [[] for _ in nodes]
        indegree = [0] * len(nodes)
        for index, keys in enumerate(depends):
            sources = {defined_by[key] for key in keys if key in defined_by}
            if index in sources:
                # A node reading its own destination (e.g. ``p = p ? v``) is
                # a combinational cycle; only the sweep loop evaluates it
                # faithfully.
                self.fallback_reason = "self-loop"
                return None
            for source in sources:
                successors[source].append(index)
                indegree[index] += 1
        ready = deque(index for index, degree in enumerate(indegree)
                      if degree == 0)
        order: List[int] = []
        while ready:
            index = ready.popleft()
            order.append(index)
            for successor in successors[index]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(nodes):
            self.fallback_reason = "combinational-cycle"
            return None
        return [nodes[index] for index in order]

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Return every primitive and child to its power-on state."""
        for model in self._primitives.values():
            model.reset()
        for child in self._children.values():
            child.reset()
        self._values = {}
        self.cycle = 0
        if self._kernel is not None:
            self._kernel.reset()
            self._kernel_used = False
        if self._native is not None:
            self._native.reset()
            self._native_used = False

    # -- kernel codegen (mode="compiled") --------------------------------------

    def _ensure_kernel(self):
        """The generated kernel instance, building it on first use; ``None``
        when codegen was not requested or is unavailable for this netlist
        (the interpreter then runs, recording :attr:`kernel_fallback_reason`).
        """
        if not self._compile_requested or self._kernel_attempted:
            return self._kernel
        self._kernel_attempted = True
        from . import codegen
        if not self.scheduled_everywhere():
            reasons = ", ".join(f"{name}: {reason}" for name, reason
                                in sorted(self.fallback_reasons().items()))
            self.kernel_fallback_reason = f"interpreter({reasons})"
            return None
        try:
            program, cached, seconds = codegen.kernel_for(self)
        except codegen.KernelUnavailable as unavailable:
            self.kernel_fallback_reason = f"codegen({unavailable.reason})"
            return None
        self._kernel_program = program
        self._kernel_from_cache = cached
        self._kernel_build_seconds = seconds
        self._kernel = program.scalar_instance()
        return self._kernel

    def uses_kernel(self) -> bool:
        """Whether this engine executes through a generated kernel (only
        meaningful after the first run in ``mode="compiled"``)."""
        return self._kernel is not None

    # -- native C tier (mode="native") -----------------------------------------

    def _ensure_native(self):
        """The native (C) kernel instance, building it on first use;
        ``None`` when the native tier was not requested or is unavailable
        for this netlist/host (the compiled-Python tier then runs,
        recording :attr:`native_fallback_reason`)."""
        if not self._native_requested or self._native_attempted:
            return self._native
        self._native_attempted = True
        if not self.scheduled_everywhere():
            reasons = ", ".join(f"{name}: {reason}" for name, reason
                                in sorted(self.fallback_reasons().items()))
            self.native_fallback_reason = f"interpreter({reasons})"
            return None
        from . import native
        try:
            program, cached, seconds = native.native_for(self)
        except native.NativeUnavailable as unavailable:
            self.native_fallback_reason = f"native({unavailable.reason})"
            return None
        self._native_program = program
        self._native_from_cache = cached
        self._native_build_seconds = seconds
        self._native = program.instance()
        return self._native

    def uses_native(self) -> bool:
        """Whether this engine executes through a native C kernel (only
        meaningful after the first run in ``mode="native"``)."""
        return self._native is not None

    def native_active(self) -> bool:
        """Whether scalar batches will run on the native C kernel (builds
        it if needed).  False outside ``mode="native"`` or after a
        fallback."""
        return (self._ensure_native() is not None
                if self._native_requested else False)

    def uses_native_lanes(self) -> bool:
        """Whether the most recent :meth:`run_lanes` /
        :meth:`run_lane_columns` call executed through the native lane
        entry (false before any lane batch has run)."""
        return self._native_lanes_used

    def native_lanes_active(self) -> bool:
        """Whether lane batches will run on the native lane entry (builds
        the kernel if needed).  False outside ``mode="native"`` or after a
        fallback.  One translation unit carries both the scalar and lane
        entries, so this coincides with :meth:`native_active`."""
        return self.native_active()

    def run_lane_columns(self, cycles: int, n_lanes: int,
                         columns) -> Optional[Dict[str, object]]:
        """Lane-columnar batch execution on the native tier: ``columns``
        maps input port name → ``(values, xflags)`` flat sequences of
        length ``cycles * n_lanes`` in lane-major-within-cycle order (flat
        index ``cycle * n_lanes + lane``; missing ports idle at X);
        returns per-output-port flat columns in the same layout, or
        ``None`` when the native tier is not running (callers then fall
        back to :meth:`run_lanes`).  Lane state is fresh per call and
        discarded afterwards — like :meth:`run_lanes`, each lane behaves
        as a freshly reset engine and the instance's own scalar state is
        untouched."""
        native = self._ensure_native() if self._native_requested else None
        if native is None:
            if self._native_requested:
                self._native_lanes_used = False
                self.native_lanes_fallback_reason = self.native_fallback_reason
            return None
        unknown = set(columns) - self._input_set
        if unknown:
            raise SimulationError(
                f"{self.component.name}: unknown input port "
                f"{sorted(unknown)[0]!r}"
            )
        self._native_used = True
        self._native_lanes_used = True
        self.native_lanes_fallback_reason = None
        out = native.run_lanes_columns(cycles, n_lanes, columns)
        self.cycle += cycles
        return out

    def run_columns(self, cycles: int, columns) -> Optional[Dict[str, object]]:
        """Columnar batch execution on the native tier: ``columns`` maps
        input port name → ``(values, xflags)`` sequences of length
        ``cycles`` (missing ports idle at X); returns per-output-port
        ``(values, xflags)`` columns, or ``None`` when the native tier is
        not running (callers then fall back to :meth:`run_batch`)."""
        native = self._ensure_native() if self._native_requested else None
        if native is None:
            return None
        unknown = set(columns) - self._input_set
        if unknown:
            raise SimulationError(
                f"{self.component.name}: unknown input port "
                f"{sorted(unknown)[0]!r}"
            )
        self._native_used = True
        out = native.run_columns(cycles, columns)
        self.cycle += cycles
        return out

    def prepare(self) -> Dict[str, object]:
        """Eagerly finish engine construction and report how this engine
        will execute.

        In ``mode="compiled"`` this builds (or fetches from the digest
        cache) the generated kernel that would otherwise be built lazily on
        the first run; ``mode="native"`` first tries the C tier and only
        builds the Python kernel when the C tier fell back; other modes are
        already fully constructed.  Returns ``{"kernel": bool, "cached":
        bool, "seconds": float, "fallback_reason": Optional[str], "native":
        bool, "native_cached": bool, "native_seconds": float,
        "native_fallback_reason": Optional[str], "native_lanes": bool,
        "native_lanes_cached": bool, "native_lanes_seconds": float,
        "native_lanes_fallback_reason": Optional[str]}`` — the public
        surface sessions and benchmarks use instead of reaching into
        engine internals.  The lane entry is emitted into the same
        translation unit as the scalar one, so ``native_lanes`` mirrors
        ``native`` with zero marginal build time."""
        native = self._ensure_native() if self._native_requested else None
        if native is None:
            self._ensure_kernel()
        return {
            "kernel": self._kernel is not None,
            "cached": self._kernel_from_cache,
            "seconds": self._kernel_build_seconds,
            "fallback_reason": self.kernel_fallback_reason,
            "native": self._native is not None,
            "native_cached": self._native_from_cache,
            "native_seconds": self._native_build_seconds,
            "native_fallback_reason": self.native_fallback_reason,
            "native_lanes": self._native is not None,
            "native_lanes_cached": self._native_from_cache,
            "native_lanes_seconds": 0.0,
            "native_lanes_fallback_reason": self.native_fallback_reason,
        }

    # -- one cycle -------------------------------------------------------------

    def step(self, inputs: Optional[Dict[str, Value]] = None) -> Dict[str, Value]:
        """Run one full clock cycle: drive ``inputs``, settle combinational
        logic, sample the outputs, then advance sequential state.  Returns
        the component's output port values during this cycle."""
        inputs = inputs or {}
        for name in inputs:
            if name not in self._input_set:
                raise SimulationError(
                    f"{self.component.name}: unknown input port {name!r}"
                )
        return self._step_unchecked(inputs)

    def run_batch(self, stimuli: Sequence[Dict[str, Value]]) -> List[Dict[str, Value]]:
        """Execute a whole stimulus list and return the per-cycle output
        dicts.  Input-name validation happens once for the batch, so
        pipelined transaction streams avoid per-cycle re-dispatch."""
        self._check_input_names(stimuli)
        return self._run_batch_unchecked(stimuli)

    def _check_input_names(self, stimuli: Iterable[Dict[str, Value]]) -> None:
        unknown = {name for cycle_inputs in stimuli
                   for name in cycle_inputs} - self._input_set
        if unknown:
            raise SimulationError(
                f"{self.component.name}: unknown input port "
                f"{sorted(unknown)[0]!r}"
            )

    def _run_batch_unchecked(self, stimuli: Sequence[Dict[str, Value]]
                             ) -> List[Dict[str, Value]]:
        if self._native_requested:
            native = self._ensure_native()
            if native is not None:
                self._native_used = True
                trace = native.run_batch(stimuli)
                self.cycle += len(trace)
                return trace
        kernel = self._ensure_kernel()
        if kernel is not None:
            self._kernel_used = True
            cycle = kernel.cycle
            trace = [cycle(cycle_inputs) for cycle_inputs in stimuli]
            self.cycle += len(trace)
            return trace
        return [self._step_unchecked(cycle_inputs) for cycle_inputs in stimuli]

    def run_lanes(self, stimuli_batches: Sequence[Sequence[Dict[str, Value]]]
                  ) -> List[List[Dict[str, Value]]]:
        """Execute N independent stimulus streams and return one per-cycle
        output trace per stream.

        Each stream's trace is bit-identical — values and X planes — to the
        trace :meth:`run_batch` would produce for that stream alone on a
        freshly reset engine.  With the native lane entry the streams share
        one C call; otherwise each stream is one scalar run on this
        engine's own tier (the compiled kernel in ``compiled``/``native``
        mode, the interpreter otherwise), starting from a fresh reset.
        Streams may have different lengths.  Input values are truncated to
        their port's declared width.  The engine is reset before and after
        the run.

        A driver conflict raises :class:`DriverConflictError` with the
        message ``<component>: conflicting drivers for <port> in cycle C
        (lane N)``: the earliest conflicting cycle over all streams first,
        then the lowest lane among the streams that conflict in that cycle.
        (Within one cycle the native lane entry screens the lanes group by
        group in schedule order, so when different lanes conflict on
        different driver groups in the same cycle it names the group the
        schedule reaches first.)
        """
        # Sequences that already are lists are used as-is (no per-batch copy).
        batches = [batch if type(batch) is list else list(batch)
                   for batch in stimuli_batches]
        if not batches:
            return []
        self._check_input_names(chain.from_iterable(batches))
        if self._native_requested:
            native = self._ensure_native()
            if native is not None:
                self._native_used = True
                self._native_lanes_used = True
                self.native_lanes_fallback_reason = None
                try:
                    return self._run_lanes_native(native, batches)
                finally:
                    self.reset()
            self._native_lanes_used = False
            self.native_lanes_fallback_reason = self.native_fallback_reason
        traces: List[List[Dict[str, Value]]] = []
        conflict: Optional[Tuple[int, DriverConflictError]] = None
        try:
            for lane, batch in enumerate(batches):
                if conflict is not None:
                    # Later lanes run only up to the recorded conflict, so
                    # any conflict they hit is earlier and wins.
                    batch = batch[:conflict[1].cycle]
                self.reset()
                try:
                    traces.append(self._run_batch_unchecked(
                        self._truncate_inputs(batch)))
                except DriverConflictError as error:
                    conflict = (lane, error)
        finally:
            self.reset()
        if conflict is not None:
            lane, error = conflict
            raise DriverConflictError(error.component, error.port,
                                      error.cycle, f" (lane {lane})")
        return traces

    def _truncate_inputs(self, batch: List[Dict[str, Value]]
                         ) -> List[Dict[str, Value]]:
        """``batch`` with every input value masked to its port's width;
        only rows carrying an oversized value are copied."""
        masks = self._input_masks
        truncated = batch
        for index, row in enumerate(batch):
            for name, value in row.items():
                if value is not X and value > masks[name]:
                    if truncated is batch:
                        truncated = list(batch)
                    truncated[index] = {
                        port: v if v is X else v & masks[port]
                        for port, v in row.items()}
                    break
        return truncated

    def _run_lanes_native(self, native, batches):
        """The :meth:`run_lanes` native fast path: marshal every stream
        into lane-major-within-port flat columns, cross into C exactly
        once, and slice the flat output columns back into per-stream
        traces.  Padding cycles past a stream's length stay X and their
        results are discarded."""
        lengths = [len(batch) for batch in batches]
        n_lanes = len(batches)
        total = max(lengths)
        columns = {}
        for port in self.component.inputs:
            name = port.name
            values = [0] * (total * n_lanes)
            xflags = bytearray(b"\x01" * (total * n_lanes))
            driven = False
            for lane, batch in enumerate(batches):
                for cycle, row in enumerate(batch):
                    value = row.get(name, X)
                    if value is X:
                        continue
                    index = cycle * n_lanes + lane
                    values[index] = value
                    xflags[index] = 0
                    driven = True
            if driven:
                columns[name] = (values, xflags)
        out = native.run_lanes_columns(total, n_lanes, columns)
        cols = [(port.name,) + out[port.name]
                for port in self.component.outputs]
        traces: List[List[Dict[str, Value]]] = []
        for lane, length in enumerate(lengths):
            lane_cols = [(name, vals[lane::n_lanes], xfl[lane::n_lanes])
                         for name, vals, xfl in cols]
            traces.append([{name: (X if xfl[i] else vals[i])
                            for name, vals, xfl in lane_cols}
                           for i in range(length)])
        return traces

    def _step_unchecked(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        if self._native_requested:
            native = self._ensure_native()
            if native is not None:
                self._native_used = True
                outputs = native.cycle(inputs)
                self.cycle += 1
                return outputs
        kernel = self._ensure_kernel()
        if kernel is not None:
            self._kernel_used = True
            outputs = kernel.cycle(inputs)
            self.cycle += 1
            return outputs
        self._begin_cycle(inputs)
        self._settle()
        outputs = self.outputs()
        self._tick()
        self.cycle += 1
        return outputs

    def outputs(self) -> Dict[str, Value]:
        """Output port values as of the last settle."""
        if self._native_used:
            native = self._native
            return {port.name: native.peek((None, port.name))
                    for port in self.component.outputs}
        if self._kernel_used:
            kernel = self._kernel
            return {port.name: kernel.peek((None, port.name))
                    for port in self.component.outputs}
        return {port.name: self._values.get((None, port.name), X)
                for port in self.component.outputs}

    def peek(self, cell: Optional[str], port: str) -> Value:
        """Inspect any internal signal (used by waveforms and tests)."""
        if self._native_used:
            return self._native.peek((cell, port))
        if self._kernel_used:
            return self._kernel.peek((cell, port))
        return self._values.get((cell, port), X)

    # -- settle ----------------------------------------------------------------

    def _begin_cycle(self, inputs: Dict[str, Value]) -> None:
        self._values = {}
        for name in self._input_names:
            self._values[(None, name)] = inputs.get(name, X)

    def _settle(self) -> None:
        if self._schedule is not None:
            self._settle_scheduled()
        else:
            self._settle_sweeps()

    def _settle_scheduled(self) -> None:
        """One pass over the levelized schedule: every node's dependencies
        are final by the time it runs, so each is evaluated exactly once."""
        values = self._values
        for kind, payload in self._schedule:
            if kind == _GROUP:
                self._evaluate_group(payload, values)
            elif kind == _PRIM:
                outputs = payload.model.combinational(
                    {port: values.get(key, X)
                     for port, key in payload.in_items})
                out_keys = payload.out_keys
                for port, value in outputs.items():
                    key = out_keys.get(port)
                    values[(payload.cell, port) if key is None else key] = value
            else:
                child = payload.engine
                # Preserving semantics, exactly like the sweep loop's child
                # evaluation: a child signal whose drivers are all inactive
                # this cycle retains its previous value.
                child._begin_cycle_preserving({
                    port: values.get(key, X)
                    for port, key in payload.in_items
                })
                child._settle()
                child_values = child._values
                for port, key in payload.out_items:
                    values[key] = child_values.get((None, port), X)

    def _resolve_group(self, group: _DriverGroup,
                       values: Dict[_Key, Value]) -> object:
        """The value the group drives this instant, :data:`X`, or
        :data:`_UNDRIVEN`.

        Definitely-active drivers (a guard port is known non-zero) must
        agree on one concrete value.  A *possibly*-active driver — every
        guard port either zero or X — forces X unless its value provably
        cannot change the result, because an X guard means the hardware may
        or may not be driving; routing to a definite "inactive" branch would
        hide the unknown.
        """
        actives: List[_CompiledAssign] = []
        active_values: List[Value] = []
        maybe_values: List[Value] = []
        for assign in group.assigns:
            guard_keys = assign.guard_keys
            if guard_keys is None:
                active, possible = True, False
            else:
                active = unknown = False
                for key in guard_keys:
                    guard = values.get(key, X)
                    if is_x(guard):
                        unknown = True
                    elif guard != 0:
                        active = True
                        break
                possible = not active and unknown
            if not active and not possible:
                continue
            source = (assign.src_const if assign.src_key is None
                      else values.get(assign.src_key, X))
            if active:
                actives.append(assign)
                active_values.append(source)
            else:
                maybe_values.append(source)
        if not actives and not maybe_values:
            return _UNDRIVEN
        concrete = [v for v in active_values if not is_x(v)]
        if len(set(concrete)) > 1:
            self._raise_conflict(group, actives, active_values)
        result: Value = concrete[0] if concrete else X
        if maybe_values and not (concrete and all(
                not is_x(v) and v == result for v in maybe_values)):
            return X
        return result

    def _evaluate_group(self, group: _DriverGroup,
                        values: Dict[_Key, Value]) -> None:
        value = self._resolve_group(group, values)
        if value is not _UNDRIVEN:
            values[group.dst_key] = value

    def _raise_conflict(self, group: _DriverGroup,
                        actives: List[_CompiledAssign],
                        values: List[Value]) -> None:
        drivers = ", ".join(str(assign.assignment) for assign in actives)
        raise DriverConflictError(
            self.component.name, group.dst, self.cycle,
            f": {drivers} (values {[format_value(v) for v in values]})")

    # -- sweep fallback --------------------------------------------------------

    def _settle_sweeps(self) -> None:
        """The original bounded fixpoint loop, retained for genuinely cyclic
        netlists (still using the precomputed driver grouping)."""
        for _ in range(_MAX_SWEEPS):
            changed = False
            changed |= self._evaluate_primitives()
            changed |= self._evaluate_children()
            changed |= self._evaluate_assignments()
            if not changed:
                return
        raise SimulationError(
            f"{self.component.name}: combinational logic did not settle "
            f"within {_MAX_SWEEPS} sweeps (possible combinational loop)"
        )

    def _evaluate_primitives(self) -> bool:
        changed = False
        values = self._values
        for node in self._prim_nodes:
            outputs = node.model.combinational(
                {port: values.get(key, X) for port, key in node.in_items})
            out_keys = node.out_keys
            for port, value in outputs.items():
                key = out_keys.get(port)
                if key is None:
                    key = (node.cell, port)
                previous = values.get(key, X)
                if previous is not value and previous != value:
                    values[key] = value
                    changed = True
        return changed

    def _evaluate_children(self) -> bool:
        changed = False
        values = self._values
        for node in self._child_nodes:
            child = node.engine
            child._begin_cycle_preserving({
                port: values.get(key, X) for port, key in node.in_items
            })
            child._settle()
            child_values = child._values
            for port, key in node.out_items:
                value = child_values.get((None, port), X)
                previous = values.get(key, X)
                if previous is not value and previous != value:
                    values[key] = value
                    changed = True
        return changed

    def _begin_cycle_preserving(self, inputs: Dict[str, Value]) -> None:
        """Like :meth:`_begin_cycle` but keeps already-computed internal
        values so repeated settles within a parent's fixpoint converge."""
        for name, value in inputs.items():
            self._values[(None, name)] = value

    def _evaluate_assignments(self) -> bool:
        changed = False
        values = self._values
        for group in self._groups:
            value = self._resolve_group(group, values)
            if value is _UNDRIVEN:
                continue
            previous = values.get(group.dst_key, X)
            if previous is not value and previous != value:
                values[group.dst_key] = value
                changed = True
        return changed

    # -- tick ------------------------------------------------------------------

    def _tick(self) -> None:
        values = self._values
        for node in self._prim_nodes:
            node.model.tick(
                {port: values.get(key, X) for port, key in node.in_items})
        for child in self._children.values():
            child._tick()
            child.cycle += 1
