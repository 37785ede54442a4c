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

Every run is a batch.  :meth:`ScheduledEngine.run_batch` executes a list
of per-cycle input dicts (``step`` is a one-row batch) and
:meth:`ScheduledEngine.run_lanes` runs N *independent* streams, lane ``l``
for exactly its own length from fresh state, with the engine reset
afterwards.  :meth:`ScheduledEngine.run_columns` and
:meth:`ScheduledEngine.run_lane_columns` are the same two batches in
columnar form — one ``(values, xflags)`` pair per port, lane ``l`` of
cycle ``i`` at flat index ``i * n_lanes + l`` — and work on every tier.
Every batch entry masks each input value to its port's declared width.
:func:`columns_to_rows`, :func:`rows_to_columns` and
:func:`interleave_columns` are the one place that converts between the two
forms.

An engine is an immutable per-component **plan** plus per-instance
**state**.  The plan (:class:`_ComponentPlan`) is everything the engine
derives from its own netlist alone: port names and masks, the primitive
cells, the driver groups, the levelized schedule and the fallback reason.
It is cached process-wide, keyed by the printed component, its primitives'
registered factories and its children's interfaces (port names and
widths), never the children's bodies — so editing a leaf's body misses
exactly one plan and every ancestor's plan still hits.  The printed text
comes from an identity memo (see :mod:`repro.core.fingerprint`), so only a
component whose parts changed is printed again.  The state is what one
engine owns: fresh primitive models, child engines, nodes bound to them,
the current values and the cycle count.  A ``compiled`` or ``native``
engine holds plans only — its own and every reachable component's,
resolved at construction from the last build of the same top, so a build
after an edit plans only what the edit changed.

``mode="compiled"`` adds the next tier: the levelized schedule is compiled
into a specialized straight-line Python kernel (:mod:`repro.sim.codegen`,
one cached chunk per component plan, linked once) and every batch
executes through it — with automatic fallback to the interpreter tiers for
netlists codegen cannot handle, so semantics never fork
(:attr:`ScheduledEngine.kernel_fallback_reason` records why).

``mode="native"`` adds the top tier: the same schedule is emitted as C
(:mod:`repro.sim.native`), compiled with the host C compiler and driven
through :mod:`ctypes`.  The chain is native → compiled → scheduled →
fixpoint: a netlist the C tier cannot represent (black boxes, >256-bit
values) or a host without a compiler falls back to the compiled-Python
kernel with the reason recorded in
:attr:`ScheduledEngine.native_fallback_reason`.

A ``compiled`` or ``native`` engine decides its tier once, in one place
(:meth:`ScheduledEngine._resolve_tier`), on its first run, ``prepare()``
or ``native_active()``: down the chain as far as its mode reaches, each
step down with its reason.  It then holds one kernel, the C or the
compiled-Python one, and ``peek``/``outputs`` read that kernel after a
batch ran on it; the interpreter state is built only when the decision
lands on the interpreter.  Both kernels share one contract, the columnar
``run_columns(cycles, columns)`` over the kernel's own state (one C call
through ``k_run_lanes`` on the native tier, one generated loop on the
compiled tier): :meth:`ScheduledEngine.run_columns` calls it directly, and
``run_batch``/``step`` convert rows to columns and back at the engine
boundary.  A native lane batch is N lanes over a fresh block of lane states
with one Python↔C crossing per batch; elsewhere ``run_lanes`` is one scalar
run per stream.  Only the interpreter takes rows: there the columnar
entries convert to rows, call ``run_batch``/``run_lanes`` and convert the
traces back.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from itertools import accumulate, chain, repeat
from operator import setitem
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..calyx.ir import Assignment, CalyxComponent, CalyxProgram, CellPort
from ..core.errors import DriverConflictError, SimulationError
from ..core.fingerprint import calyx_component_parts, same_parts
from ..core.store import DigestCache
from .primitives import _FACTORIES, PrimitiveModel, create_primitive
from .values import Value, X, format_value, is_x

__all__ = ["ScheduledEngine", "SimulatorMode", "_MAX_SWEEPS",
           "columns_to_rows", "rows_to_columns", "interleave_columns"]

#: Sentinel for "no driver is active or possibly active" — the destination
#: port keeps what it holds in this cycle: X unless an earlier sweep of the
#: cycle drove it.
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

#: Schedule node kinds; a plan's schedule entry ``(kind, index)`` indexes
#: the ``(prims, children, groups)`` node lists in this order.
_PRIM = 0
_CHILD = 1
_GROUP = 2

#: Bound of the plan cache here and of the chunk cache in
#: :mod:`repro.sim.codegen`; each entry describes one component.  A
#: ``chain_program`` link costs about 8 KiB of plan and 8 KiB of chunk, a
#: generated conformance component about 46 KiB for both, so a long fuzz
#: campaign retains at most ~50 MB while 16 64-deep chains still fit.
_CACHE_BOUND = 1024

#: A signal key: ``(cell_name_or_None, port_name)``.
_Key = Tuple[Optional[str], str]

#: One port's flat column: a value per entry and a parallel X-flag byte per
#: entry (value 0 where the flag is set).
Column = Tuple[Sequence[int], Sequence[int]]


# -- rows <-> columns ----------------------------------------------------------


def columns_to_rows(columns: Dict[str, Column], cycles: int,
                    n_lanes: int = 1, lane: int = 0
                    ) -> List[Dict[str, Value]]:
    """The first ``cycles`` rows of lane ``lane`` in flat lane-major
    ``columns`` (cycle ``i`` of lane ``l`` at index ``i * n_lanes + l``):
    one dict per cycle with an entry per column, ``X`` where flagged."""
    stop = cycles * n_lanes
    rows: List[Dict[str, Value]] = [{} for _ in range(cycles)]
    for name, (values, xflags) in columns.items():
        values = values[lane:stop:n_lanes]
        xflags = xflags[lane:stop:n_lanes]
        if any(xflags):
            values = [X if x else value for value, x in zip(values, xflags)]
        # ``row[name] = value`` for every row, looped in C.
        deque(map(setitem, rows, repeat(name), values), maxlen=0)
    return rows


def rows_to_columns(streams: Sequence[Sequence[Dict[str, Value]]],
                    names: Sequence[str], cycles: int) -> Dict[str, Column]:
    """Row streams as flat lane-major columns of ``cycles * len(streams)``
    entries, one per name: row ``i`` of stream ``l`` lands at
    ``i * len(streams) + l``; a missing entry, and every cycle past a
    stream's end, is X."""
    lanes = []
    for rows in streams:
        lane: Dict[str, Column] = {}
        for name in names:
            column = [row.get(name, X) for row in rows]
            if X in column:
                lane[name] = ([0 if value is X else value
                               for value in column],
                              bytearray([value is X for value in column]))
            else:
                lane[name] = (column, bytearray(len(column)))
        lanes.append(lane)
    return interleave_columns(cycles, lanes, [len(rows) for rows in streams])


def interleave_columns(cycles: int, lanes: Sequence[Dict[str, Column]],
                       lengths: Sequence[int]) -> Dict[str, Column]:
    """Per-lane column sets as flat lane-major columns of ``cycles *
    len(lanes)`` entries: lane ``l``'s columns hold exactly ``lengths[l]``
    entries, and entry ``i`` lands at ``i * len(lanes) + l``.  Every cycle
    past a lane's length, and every port a lane lacks, is X."""
    n_lanes = len(lanes)
    size = cycles * n_lanes
    merged: Dict[str, Column] = {}
    for name in dict.fromkeys(chain.from_iterable(lanes)):
        values = [0] * size
        xflags = bytearray(b"\x01") * size
        for index, (lane, length) in enumerate(zip(lanes, lengths)):
            if name in lane:
                lane_values, lane_xflags = lane[name]
                stop = length * n_lanes
                values[index:stop:n_lanes] = lane_values
                xflags[index:stop:n_lanes] = lane_xflags
        merged[name] = (values, xflags)
    return merged


class _PrimNode:
    """A primitive cell with its port keys interned once.

    ``in_items``/``out_keys`` pair each port name with its prebuilt
    ``(cell, port)`` key, so neither the scheduled pass nor the sweep
    fallback re-allocates key tuples on every cycle.  A plan's template
    node and every engine's node for the cell share these tuples; only the
    model differs (the template's is a prototype read for static
    attributes only)."""

    __slots__ = ("cell", "model", "in_items", "out_keys")

    def __init__(self, cell: str, model: PrimitiveModel,
                 in_items: Tuple[Tuple[str, _Key], ...],
                 out_keys: Dict[str, _Key]) -> None:
        self.cell = cell
        self.model = model
        self.in_items = in_items
        self.out_keys = out_keys


class _ChildPorts:
    """A child cell as its parent's plan sees it: the child component's
    name, its port items and its port widths — never its body."""

    __slots__ = ("cell", "component", "in_items", "out_items", "widths")

    def __init__(self, cell: str, component: str,
                 inputs: Tuple[Tuple[str, int], ...],
                 outputs: Tuple[Tuple[str, int], ...]) -> None:
        self.cell = cell
        self.component = component
        self.in_items: Tuple[Tuple[str, _Key], ...] = tuple(
            (port, (cell, port)) for port, _ in inputs)
        self.out_items: Tuple[Tuple[str, _Key], ...] = tuple(
            (port, (cell, port)) for port, _ in outputs)
        self.widths: Dict[str, int] = dict(inputs + outputs)


class _ChildNode:
    """A child component instance, sharing its plan's port items."""

    __slots__ = ("cell", "engine", "in_items", "out_items")

    def __init__(self, cell: str, engine: "ScheduledEngine",
                 ports: _ChildPorts) -> None:
        self.cell = cell
        self.engine = engine
        self.in_items = ports.in_items
        self.out_items = ports.out_items


def _settle_child(node: _ChildNode, values: Dict[_Key, Value]
                  ) -> Dict[_Key, Value]:
    """Settle ``node``'s child on its inputs as read from its parent's
    ``values`` and return the child's values.  Only the inputs are written:
    what the child computed earlier in the cycle stays until the next
    :meth:`ScheduledEngine._begin_cycle` clears it, so a fixpoint parent
    that settles a child many times per cycle converges in a few sweeps."""
    child = node.engine
    child_values = child._values
    for port, key in node.in_items:
        child_values[(None, port)] = values.get(key, X)
    child._settle()
    return child_values


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


def _build_schedule(prim_nodes: Sequence[_PrimNode],
                    child_nodes: Sequence[_ChildPorts],
                    groups: Sequence[_DriverGroup], input_set: frozenset
                    ) -> Tuple[Optional[List[Tuple[int, int]]],
                               Optional[str]]:
    """Levelize a netlist into a topological evaluation order of ``(kind,
    index)`` pairs, or return ``(None, reason)`` when the combinational
    dependency graph is cyclic (or otherwise irregular) and the sweep
    fallback must be used."""
    nodes: List[Tuple[int, int]] = []
    defines: List[Tuple[_Key, ...]] = []
    depends: List[Tuple[_Key, ...]] = []

    for index, node in enumerate(prim_nodes):
        model = node.model
        comb = model.combinational_inputs
        if comb is None:
            comb = model.inputs
        nodes.append((_PRIM, index))
        defines.append(tuple(node.out_keys.values()))
        depends.append(tuple((node.cell, port) for port in comb))

    for index, child_node in enumerate(child_nodes):
        # All inputs, not just combinationally-relevant ones: the child's
        # tick reads the inputs of its last settle.
        nodes.append((_CHILD, index))
        defines.append(tuple(key for _, key in child_node.out_items))
        depends.append(tuple(key for _, key in child_node.in_items))

    for index, group in enumerate(groups):
        nodes.append((_GROUP, index))
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
                return None, "duplicate-definition"
            if key[0] is None and key[1] in input_set:
                return None, "input-shadowing"
            defined_by[key] = index

    # Kahn's algorithm over node-level edges, preserving declaration order
    # among ready nodes for determinism.  The ready set is a deque (FIFO
    # popleft keeps the declaration order) — a list's ``pop(0)`` made
    # schedule construction O(n²) in node count.
    successors: List[List[int]] = [[] for _ in nodes]
    indegree = [0] * len(nodes)
    for index, keys in enumerate(depends):
        sources = {defined_by[key] for key in keys if key in defined_by}
        if index in sources:
            # A node reading its own destination (e.g. ``p = p ? v``) is a
            # combinational cycle; only the sweep loop evaluates it
            # faithfully.
            return None, "self-loop"
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
        return None, "combinational-cycle"
    return [nodes[index] for index in order], None


class _ComponentPlan:
    """What an engine derives from its own netlist alone, shared by every
    engine of a structurally identical component and never mutated, but
    for the :attr:`chunk` memo :mod:`repro.sim.codegen` fills in.

    It holds the port names, widths and input masks; the primitive cells
    as ``(cell, primitive, params)``, with template :class:`_PrimNode`
    objects whose models are shared prototypes, read only for static
    attributes (name, width, params, combinational inputs); the child cells as
    :class:`_ChildPorts`, which carry only the child's interface; the
    driver groups; and the levelized schedule as ``(kind, index)`` pairs,
    or ``None`` with :attr:`fallback_reason` set when the sweep fallback
    runs.  ``text`` is the printed component, the first part of ``key``."""

    __slots__ = ("key", "name", "text", "input_names", "input_set",
                 "output_names", "widths", "input_masks", "ports", "prims",
                 "prim_nodes", "child_nodes", "groups", "schedule",
                 "fallback_reason", "chunk")

    def __init__(self, key: tuple, component: CalyxComponent,
                 fixpoint: bool) -> None:
        self.key = key
        self.name = component.name
        self.text: str = key[0]
        self.input_names: Tuple[str, ...] = tuple(component.input_names())
        self.input_set = frozenset(self.input_names)
        self.output_names: Tuple[str, ...] = tuple(component.output_names())
        self.widths: Dict[str, int] = {
            port.name: port.width
            for port in list(component.inputs) + list(component.outputs)}
        #: Per input port, the mask of its declared width (every batch
        #: entry truncates its inputs to it).
        self.input_masks: Dict[str, int] = {
            port.name: (1 << port.width) - 1 for port in component.inputs}
        #: The interface as a parent's key holds it: input and output
        #: ``(name, width)`` ports.
        self.ports = _ports(component)
        #: The compiled chunk of this plan, once :mod:`repro.sim.codegen`
        #: has built or found it.
        self.chunk = None
        prims: List[Tuple[str, str, tuple]] = []
        self.prim_nodes: List[_PrimNode] = []
        self.child_nodes: List[_ChildPorts] = []
        for cell, part in zip(component.cells, key[2]):
            if isinstance(part, tuple):
                self.child_nodes.append(
                    _ChildPorts(cell.name, cell.component, *part))
                continue
            params = tuple(cell.params)
            prims.append((cell.name, cell.component, params))
            model = _prototype(part, cell.component, params)
            self.prim_nodes.append(_PrimNode(
                cell.name, model,
                tuple((port, (cell.name, port)) for port in model.inputs),
                {port: (cell.name, port) for port in model.outputs}))
        self.prims = tuple(prims)
        by_dst: Dict[CellPort, List[_CompiledAssign]] = {}
        for wire in component.wires:
            by_dst.setdefault(wire.dst, []).append(_CompiledAssign(wire))
        self.groups: List[_DriverGroup] = [
            _DriverGroup(dst, assigns) for dst, assigns in by_dst.items()]
        self.schedule: Optional[List[Tuple[int, int]]]
        self.fallback_reason: Optional[str]
        if fixpoint:
            self.schedule, self.fallback_reason = None, "mode=fixpoint"
        else:
            self.schedule, self.fallback_reason = _build_schedule(
                self.prim_nodes, self.child_nodes, self.groups,
                self.input_set)

    def bind(self, prim_nodes: Sequence, child_nodes: Sequence
             ) -> Optional[List[Tuple[int, object]]]:
        """The schedule as ``(kind, node)`` pairs over the given node
        lists (``None`` under the sweep fallback)."""
        if self.schedule is None:
            return None
        nodes = (prim_nodes, child_nodes, self.groups)
        return [(kind, nodes[kind][index]) for kind, index in self.schedule]


#: Process-wide plan cache (see :func:`_plan_for`).
_PLANS = DigestCache(_CACHE_BOUND)

#: ``id(component) -> (parts, printed text)``: the identity memo behind the
#: printed part of a plan key.  An entry is reused only while its parts are
#: the very objects the component holds, so an ``id`` taken over by another
#: component can only reuse text that component also prints.
_PLAN_TEXTS = DigestCache(_CACHE_BOUND)

#: ``(factory, params) -> model``: the primitive prototypes plans read
#: static attributes from, shared by every plan that names them.
_PROTOTYPES = DigestCache(_CACHE_BOUND)


def _clear_plans() -> None:
    """Drop every cached plan, with the memos behind the plans."""
    _PLANS.clear()
    _PLAN_TEXTS.clear()
    _PROTOTYPES.clear()
    _BUILDS.clear()


def _ports(component: CalyxComponent) -> tuple:
    """``component``'s input and output ``(name, width)`` ports: what a
    parent's plan key holds of a child."""
    return (tuple([(p.name, p.width) for p in component.inputs]),
            tuple([(p.name, p.width) for p in component.outputs]))


def _prototype(factory, primitive: str, params: tuple) -> PrimitiveModel:
    """The shared prototype model of ``primitive[params]`` as built by
    ``factory``, the primitive's registered factory."""
    model = _PROTOTYPES.get((factory, params))
    if model is None:
        model = create_primitive(primitive, params)
        _PROTOTYPES.put((factory, params), model)
    return model


def _plan_for(program: CalyxProgram, component: CalyxComponent,
              fixpoint: bool) -> _ComponentPlan:
    """The cached plan of ``component``.  Its key is the printed
    component, the fixpoint flag and, per cell, the registered primitive
    factory (so a ``register_primitive`` override misses) or the child's
    input and output ``(name, width)`` ports — never the child's body.
    The per-cell part is read on every lookup; the printed part comes from
    an identity memo, so only a component whose parts changed is printed
    again."""
    cells: List[object] = []
    for cell in component.cells:
        factory = _FACTORIES.get(cell.component)
        if factory is not None:
            cells.append(factory)
            continue
        child = program.components.get(cell.component)
        if child is None:
            raise SimulationError(
                f"{component.name}: cell {cell.name} instantiates "
                f"unknown component {cell.component!r}")
        cells.append(_ports(child))
    parts = calyx_component_parts(component)
    printed = _PLAN_TEXTS.get(id(component))
    if printed is None or not same_parts(printed[0], parts):
        printed = (parts, str(component))
        _PLAN_TEXTS.put(id(component), printed)
    key = (printed[1], fixpoint, tuple(cells))
    plan = _PLANS.get(key)
    if plan is None:
        plan = _ComponentPlan(key, component, fixpoint)
        _PLANS.put(key, plan)
    return plan


def _child_names(component: CalyxComponent) -> Tuple[str, ...]:
    """The components ``component``'s child cells instantiate, in cell
    order (a cell naming a primitive is not a child)."""
    return tuple([cell.component for cell in component.cells
                  if _FACTORIES.get(cell.component) is None])


class _Layout:
    """Components' parts (:func:`~repro.core.fingerprint.calyx_component_parts`)
    laid flat, with each component's part count, and the primitive
    registry as it stood."""

    __slots__ = ("lengths", "parts", "factories")

    def __init__(self, objects: List[CalyxComponent]) -> None:
        each = list(map(calyx_component_parts, objects))
        self.lengths = list(map(len, each))
        self.parts = list(chain.from_iterable(each))
        self.factories = dict(_FACTORIES)

    def changed(self, last: "_Layout") -> Optional[List[int]]:
        """The positions of the components that hold another part than in
        ``last``; ``None`` when a component's part count changed or the
        primitive registry changed.  Parts are compared in C by equality,
        identity first: Calyx parts are frozen dataclasses over names and
        integers, so equal parts describe the same netlist."""
        if self.lengths != last.lengths or self.factories != last.factories:
            return None
        ends = list(accumulate(self.lengths))
        return sorted({bisect_right(ends, index)
                       for index in _unequal(self.parts, last.parts)})


class _Build:
    """The last plan-only build of one top component: the components it
    reached, children before parents, with their :class:`_Layout`, their
    plans, their child component names and, per name, the positions of
    the components that instantiate it."""

    __slots__ = ("names", "layout", "plans", "children", "parents")

    def __init__(self, reached: List[CalyxComponent],
                 plans: List[_ComponentPlan],
                 children: List[Tuple[str, ...]]) -> None:
        self.names = [component.name for component in reached]
        self.layout = _Layout(reached)
        self.plans = plans
        self.children = children
        self.parents: Dict[str, List[int]] = {}
        for index, names in enumerate(children):
            for name in dict.fromkeys(names):
                self.parents.setdefault(name, []).append(index)


#: ``(top component name, fixpoint) -> _Build``: the last plan-only build
#: of each top, which the next build of that top starts from.  Few tops
#: are built again and again, so few are kept.
_BUILDS = DigestCache(16)


def _unequal(new: list, old: list):
    """The indices, in order, at which ``new`` holds a part unequal to
    ``old``'s (the lists are as long), found by halving: one C comparison
    of the whole, then of the halves that differ."""
    if new == old:
        return
    spans = [(0, len(new))]
    while spans:
        low, high = spans.pop()
        if new[low:high] == old[low:high]:
            continue
        if high - low == 1:
            yield low
            continue
        middle = (low + high) // 2
        spans.append((middle, high))
        spans.append((low, middle))


class ScheduledEngine:
    """Simulates one component of a :class:`CalyxProgram` from a
    precompiled evaluation schedule.

    Construction looks up the component's cached :class:`_ComponentPlan`.
    In ``auto`` and ``fixpoint`` mode it then builds fresh state around
    it: primitive models and child engines, nodes that share the plan's
    port items, and the schedule bound to those nodes.  In ``compiled``
    and ``native`` mode construction resolves only the plans of every
    reachable component, children first; the tier is decided once, on the
    first run, ``prepare()`` or ``native_active()``
    (:meth:`_resolve_tier`), and the interpreter state is built only when
    that decision lands on the interpreter.  Each engine resets only its
    own primitives; every child engine resets its own when it builds
    them."""

    def __init__(self, program: CalyxProgram,
                 component: Optional[str] = None,
                 mode: SimulatorMode = "auto") -> None:
        self._setup(program, component, mode)
        if mode in ("compiled", "native"):
            self._reachable_plans()
        else:
            self._build_state()

    def _setup(self, program: CalyxProgram, component: Optional[str],
               mode: SimulatorMode) -> None:
        """The fields every engine has before any state is built: the
        component, its plan and what is read off the plan, and an
        undecided tier."""
        if mode not in ("auto", "fixpoint", "compiled", "native"):
            raise SimulationError(f"unknown simulator mode {mode!r}")
        self.program = program
        self.mode = mode
        name = component if component is not None else program.entrypoint
        if name is None:
            raise SimulationError("no component selected for simulation")
        self.component: CalyxComponent = program.get(name)
        plan = self._plan = _plan_for(program, self.component,
                                      mode == "fixpoint")
        self._plans: Optional[List[_ComponentPlan]] = None
        self._input_names = plan.input_names
        self._input_set = plan.input_set
        self._output_names = plan.output_names
        self._input_masks = plan.input_masks
        self._groups: List[_DriverGroup] = plan.groups
        #: Why the sweep fallback is in effect (``None`` while the levelized
        #: schedule runs): ``"mode=fixpoint"``, ``"duplicate-definition"``,
        #: ``"input-shadowing"``, ``"self-loop"`` or ``"combinational-cycle"``.
        self.fallback_reason: Optional[str] = plan.fallback_reason

        # The tier ("native", "compiled" or "interpreter"; ``None`` until
        # decided) and, on a kernel tier, its instance, whether it came
        # from a cache, and whether a batch ran on it since the last reset.
        # Children are only ever driven through their parent, so they
        # never decide on a kernel.
        self._tier: Optional[str] = None
        self._kernel = None
        self._cached = False
        self._kernel_ran = False
        #: Why ``mode="compiled"``/``"native"`` fell back to the
        #: interpreter: ``codegen(...)`` or ``interpreter(...)``.
        self.kernel_fallback_reason: Optional[str] = None
        #: Why ``mode="native"`` fell back below the C tier: ``native(...)``
        #: for C-tier ineligibility or compiler problems,
        #: ``interpreter(...)`` when even the schedule is out.
        self.native_fallback_reason: Optional[str] = None

        #: Current values of every (cell, port) pair; ``None`` cell means the
        #: component's own ports.
        self._values: Dict[_Key, Value] = {}
        self.cycle = 0

    def _build_state(self) -> None:
        """Build the interpreter state around the plan — primitive models
        (reset), child engines, their nodes and the bound schedule — and
        settle the tier on the interpreter, here and in every engine
        below.  A child is only ever settled by this engine's interpreter,
        so it is an interpreter engine too.  The hierarchy is built from a
        worklist, so its depth never nests a Python frame."""
        mode = "fixpoint" if self.mode == "fixpoint" else "auto"
        pending = [self]
        while pending:
            engine = pending.pop()
            plan = engine._plan
            engine._primitives = {
                cell: create_primitive(primitive, params)
                for cell, primitive, params in plan.prims}
            engine._children = {}
            for node in plan.child_nodes:
                child = engine._children[node.cell] = object.__new__(
                    type(engine))
                child._setup(engine.program, node.component, mode)
            engine._prim_nodes = [
                _PrimNode(node.cell, engine._primitives[node.cell],
                          node.in_items, node.out_keys)
                for node in plan.prim_nodes]
            engine._child_nodes = [
                _ChildNode(node.cell, engine._children[node.cell], node)
                for node in plan.child_nodes]
            engine._schedule = plan.bind(engine._prim_nodes,
                                         engine._child_nodes)
            for model in engine._primitives.values():
                model.reset()
            engine._tier = "interpreter"
            pending.extend(engine._children.values())

    # -- schedule --------------------------------------------------------------

    def _reachable_plans(self) -> List[_ComponentPlan]:
        """The plans of this component and of every component it
        instantiates, transitively: one per component name, children
        before parents (so every child's kernel factory is linked before
        its parent's).  The last build of the same top is the starting
        point (:class:`_Build`): what it reached is compared with the
        program in C, and only the components that changed, and the
        parents of one whose interface changed, are resolved again."""
        if self._plans is not None:
            return self._plans
        fixpoint = self.mode == "fixpoint"
        key = (self.component.name, fixpoint)
        build = _BUILDS.get(key)
        plans = None if build is None else self._rebuilt(build, fixpoint)
        if plans is None:
            build = self._walk(fixpoint)
            plans = build.plans
        _BUILDS.put(key, build)
        self._plans = plans
        return plans

    def _resolve(self, component: CalyxComponent, fixpoint: bool
                 ) -> _ComponentPlan:
        """``component``'s plan in this engine's build."""
        if component is self.component:
            return self._plan
        return _plan_for(self.program, component, fixpoint)

    def _walk(self, fixpoint: bool) -> "_Build":
        """A new build: every reachable component, depth first, children
        before parents."""
        components = self.program.components
        plans: List[_ComponentPlan] = []
        reached: List[CalyxComponent] = []
        children: List[Tuple[str, ...]] = []
        seen = {self.component.name}
        stack = [(self.component, iter(self.component.cells))]
        while stack:
            component, cells = stack[-1]
            for cell in cells:
                name = cell.component
                if (name not in seen and _FACTORIES.get(name) is None
                        and name in components):
                    seen.add(name)
                    child = components[name]
                    stack.append((child, iter(child.cells)))
                    break
            else:
                stack.pop()
                plans.append(self._resolve(component, fixpoint))
                reached.append(component)
                children.append(_child_names(component))
        return _Build(reached, plans, children)

    def _rebuilt(self, build: "_Build", fixpoint: bool
                 ) -> Optional[List[_ComponentPlan]]:
        """``build``'s plans brought up to date with this engine's
        program, with ``build`` updated in place; ``None`` when what is
        reachable may have changed (a reached component left, or one that
        changed names other children), or when a part list changed its
        length or the primitive registry changed, and a new walk must
        tell."""
        objects = list(map(self.program.components.get, build.names))
        try:
            layout = _Layout(objects)
        except AttributeError:  # a reached component left the program
            return None
        changed = layout.changed(build.layout)
        if changed is None:
            return None
        for index in changed:
            if _child_names(objects[index]) != build.children[index]:
                return None
        plans = list(build.plans)
        pending = sorted(set(changed) | {len(plans) - 1})
        for index in pending:
            component = objects[index]
            plan = self._resolve(component, fixpoint)
            if plan.ports != plans[index].ports:
                for parent in build.parents.get(component.name, ()):
                    if parent not in pending:
                        insort(pending, parent)
            plans[index] = plan
        _PLANS.count_hits(len(plans) - len(pending))
        build.layout, build.plans = layout, plans
        return plans

    @property
    def is_scheduled(self) -> bool:
        """Whether this component settles via the levelized schedule (the
        sweep-loop fallback is in effect otherwise)."""
        return self._plan.schedule is not None

    def scheduled_everywhere(self) -> bool:
        """Whether this component *and every child, recursively* run on the
        levelized schedule."""
        return all(plan.schedule is not None
                   for plan in self._reachable_plans())

    def fallback_reasons(self) -> Dict[str, str]:
        """Component name → why the sweep fallback is in effect, for this
        component and every child, recursively; empty when everything runs
        on the levelized schedule."""
        return {plan.name: plan.fallback_reason
                for plan in self._reachable_plans()
                if plan.schedule is None}

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Return every primitive and child to its power-on state."""
        if self._tier == "interpreter":
            for model in self._primitives.values():
                model.reset()
            for child in self._children.values():
                child.reset()
        self._values = {}
        self.cycle = 0
        if self._kernel is not None:
            self._kernel.reset()
            self._kernel_ran = False

    # -- tier ------------------------------------------------------------------

    def _resolve_tier(self):
        """The kernel instance batches run on, or ``None`` for the
        interpreter.  The tier is decided once, down the chain native →
        compiled → interpreter, as far as ``mode`` reaches; each step down
        records why in :attr:`native_fallback_reason` or
        :attr:`kernel_fallback_reason`, and landing on the interpreter
        builds its state."""
        if self._tier is not None:
            return self._kernel
        from . import codegen, native
        if not self.scheduled_everywhere():
            reasons = ", ".join(f"{name}: {reason}" for name, reason
                                in sorted(self.fallback_reasons().items()))
            self.kernel_fallback_reason = f"interpreter({reasons})"
            if self.mode == "native":
                self.native_fallback_reason = self.kernel_fallback_reason
        else:
            if self.mode == "native":
                try:
                    program, self._cached = native.native_for(self)
                except native.NativeUnavailable as unavailable:
                    self.native_fallback_reason = (
                        f"native({unavailable.reason})")
                else:
                    self._kernel, self._tier = program.instance(), "native"
                    return self._kernel
            try:
                program, self._cached = codegen.kernel_for(self)
            except codegen.KernelUnavailable as unavailable:
                self.kernel_fallback_reason = f"codegen({unavailable.reason})"
            else:
                self._kernel = program.scalar_instance()
                self._tier = "compiled"
                return self._kernel
        self._build_state()
        return None

    def uses_kernel(self) -> bool:
        """Whether this engine executes through a generated Python kernel
        (only meaningful once the tier is decided)."""
        return self._tier == "compiled"

    def uses_native(self) -> bool:
        """Whether this engine executes through a native C kernel (only
        meaningful once the tier is decided)."""
        return self._tier == "native"

    def native_active(self) -> bool:
        """Whether batches will run on the native C kernel (decides the
        tier if needed).  False outside ``mode="native"`` or after a
        fallback."""
        self._resolve_tier()
        return self._tier == "native"

    def uses_native_lanes(self) -> bool:
        """:meth:`uses_native`: scalar and lane batches share one C entry."""
        return self.uses_native()

    def native_lanes_active(self) -> bool:
        """:meth:`native_active`: scalar and lane batches share one C
        entry."""
        return self.native_active()

    def prepare(self) -> Dict[str, bool]:
        """Decide the tier now instead of on the first run, and report it:
        ``{"kernel": bool, "cached": bool, "native": bool,
        "native_cached": bool}`` — whether the compiled-Python or the C
        kernel runs, and whether it came from a cache.  ``auto`` and
        ``fixpoint`` engines are already fully constructed.  Scalar and
        lane batches share the one native entry, so ``native`` covers
        both; the fallback reasons are the engine's attributes."""
        self._resolve_tier()
        kernel, native = self.uses_kernel(), self.uses_native()
        return {"kernel": kernel, "cached": kernel and self._cached,
                "native": native, "native_cached": native and self._cached}

    # -- batches ---------------------------------------------------------------

    def step(self, inputs: Optional[Dict[str, Value]] = None) -> Dict[str, Value]:
        """Run one full clock cycle: drive ``inputs``, settle combinational
        logic, sample the outputs, then advance sequential state.  Returns
        the component's output port values during this cycle.  This is a
        one-row :meth:`run_batch`."""
        return self.run_batch((inputs or {},))[0]

    def run_batch(self, stimuli: Sequence[Dict[str, Value]]) -> List[Dict[str, Value]]:
        """Execute a whole stimulus list and return the per-cycle output
        dicts.  Validation and width masking happen once for the batch, so
        pipelined transaction streams avoid per-cycle re-dispatch.  On a
        kernel tier, C or compiled-Python, the rows become columns for the
        kernel's one columnar entry and its columns become rows again."""
        rows = self._checked_rows(stimuli)
        self._resolve_tier()
        return self._run_rows(rows)

    def run_lanes(self, stimuli_batches: Sequence[Sequence[Dict[str, Value]]]
                  ) -> List[List[Dict[str, Value]]]:
        """Execute N independent stimulus streams and return one per-cycle
        output trace per stream.

        Lane ``l`` runs exactly as many cycles as its stream has rows, from
        fresh state, so its trace is bit-identical — values and X planes —
        to the trace :meth:`run_batch` would produce for that stream alone
        on a freshly reset engine.  With the native tier the streams share
        one C call; otherwise each stream is one scalar run on this
        engine's own tier (the compiled kernel in ``compiled``/``native``
        mode, the interpreter otherwise), starting from a fresh reset.
        Input values are truncated to their port's declared width.  The
        engine is reset afterwards.

        A driver conflict raises :class:`DriverConflictError` with the
        message ``<component>: conflicting drivers for <port> in cycle C
        (lane N)``: the earliest conflicting cycle over all streams first,
        then the lowest lane among the streams that conflict in that cycle.
        """
        batches = [self._checked_rows(batch) for batch in stimuli_batches]
        try:
            kernel = self._resolve_tier()
            if self._tier == "native":
                lengths = [len(batch) for batch in batches]
                cycles = max(lengths, default=0)
                out = kernel.run_lanes_columns(
                    cycles, len(batches),
                    rows_to_columns(batches, self._input_names, cycles),
                    lengths)
                return [columns_to_rows(out, length, len(batches), lane)
                        for lane, length in enumerate(lengths)]
            traces: List[List[Dict[str, Value]]] = []
            conflict: Optional[Tuple[int, DriverConflictError]] = None
            for lane, batch in enumerate(batches):
                if conflict is not None:
                    # Later lanes run only up to the recorded conflict, so
                    # any conflict they hit is earlier and wins.
                    batch = batch[:conflict[1].cycle]
                self.reset()
                try:
                    traces.append(self._run_rows(batch))
                except DriverConflictError as error:
                    conflict = (lane, error)
        finally:
            self.reset()
        if conflict is not None:
            lane, error = conflict
            raise DriverConflictError(error.component, error.port,
                                      error.cycle, f" (lane {lane})")
        return traces

    def run_columns(self, cycles: int,
                    columns: Dict[str, Column]) -> Dict[str, Column]:
        """:meth:`run_batch` in columnar form: ``columns`` maps input port
        name → ``(values, xflags)`` of ``cycles`` entries (a missing port
        idles at X); returns one ``(values, xflags)`` column per output
        port.  Both kernel tiers run it through their one columnar entry
        over the engine's own state — one C call on the native tier, one
        generated loop on the compiled tier; only the interpreter converts
        to rows, calls :meth:`run_batch` and converts the trace back."""
        self._check_input_names((columns,))
        kernel = self._resolve_tier()
        if kernel is None:
            trace = self.run_batch(columns_to_rows(columns, cycles))
            return rows_to_columns((trace,), self._output_names, cycles)
        self._kernel_ran = True
        out = kernel.run_columns(cycles, columns)
        self.cycle += cycles
        return out

    def run_lane_columns(self, cycles: int, n_lanes: int,
                         columns: Dict[str, Column],
                         lengths: Sequence[int]) -> Dict[str, Column]:
        """:meth:`run_lanes` in columnar form: ``columns`` maps input port
        name → flat ``(values, xflags)`` of ``cycles * n_lanes`` entries,
        cycle ``i`` of lane ``l`` at ``i * n_lanes + l`` (a missing port
        idles at X), and lane ``l`` runs exactly ``lengths[l]`` cycles.
        Returns one flat column per output port in the same layout, X past
        each lane's length.  The contract is :meth:`run_lanes`'s: fresh
        state per lane, the earliest conflicting cycle then the lowest
        lane, and the engine reset afterwards.  The native tier runs it as
        one C call; the Python tiers convert each lane to rows, call
        :meth:`run_lanes` and convert the traces back."""
        self._check_input_names((columns,))
        if len(lengths) != n_lanes or not all(
                0 <= length <= cycles for length in lengths):
            raise SimulationError(
                f"{self.component.name}: lane lengths {list(lengths)} do "
                f"not fit {n_lanes} lane(s) of {cycles} cycle(s)")
        kernel = self._resolve_tier()
        if self._tier != "native":
            traces = self.run_lanes([
                columns_to_rows(columns, length, n_lanes, lane)
                for lane, length in enumerate(lengths)])
            return rows_to_columns(traces, self._output_names, cycles)
        try:
            return kernel.run_lanes_columns(cycles, n_lanes, columns,
                                            lengths)
        finally:
            self.reset()

    def _checked_rows(self, stimuli: Iterable[Dict[str, Value]]
                      ) -> List[Dict[str, Value]]:
        """``stimuli`` as a list, every name checked against the input
        ports and every value masked to its port's width (negative values
        included); only rows whose values change are copied."""
        rows = stimuli if type(stimuli) is list else list(stimuli)
        checked = rows
        masks = self._input_masks
        for index, row in enumerate(rows):
            for name, value in row.items():
                mask = masks.get(name)
                if mask is None:
                    self._check_input_names(rows)
                if value is not X and value & mask != value:
                    if checked is stimuli:
                        checked = list(rows)
                    checked[index] = {
                        port: v if v is X else v & masks[port]
                        for port, v in row.items()}
                    break
        return checked

    def _check_input_names(self, stimuli: Iterable[Dict[str, Value]]) -> None:
        unknown = {name for cycle_inputs in stimuli
                   for name in cycle_inputs} - self._input_set
        if unknown:
            raise SimulationError(
                f"{self.component.name}: unknown input port "
                f"{sorted(unknown)[0]!r}"
            )

    def _run_rows(self, rows: List[Dict[str, Value]]
                  ) -> List[Dict[str, Value]]:
        """Checked rows on the engine's tier, decided already: the
        interpreter steps them; a kernel, C or compiled-Python, takes them
        as columns through its one columnar entry, and its output columns
        come back as rows."""
        kernel = self._kernel
        if kernel is None:
            return [self._step_unchecked(row) for row in rows]
        self._kernel_ran = True
        cycles = len(rows)
        out = kernel.run_columns(
            cycles, rows_to_columns((rows,), self._input_names, cycles))
        self.cycle += cycles
        return columns_to_rows(out, cycles)

    def _step_unchecked(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        self._begin_cycle(inputs)
        self._settle()
        outputs = self.outputs()
        self._tick()
        self.cycle += 1
        return outputs

    def outputs(self) -> Dict[str, Value]:
        """Output port values as of the last settle."""
        if self._kernel_ran:
            kernel = self._kernel
            return {port.name: kernel.peek((None, port.name))
                    for port in self.component.outputs}
        return {port.name: self._values.get((None, port.name), X)
                for port in self.component.outputs}

    def peek(self, cell: Optional[str], port: str) -> Value:
        """Inspect any internal signal (used by waveforms and tests): the
        kernel's when a batch ran on one since the last reset."""
        if self._kernel_ran:
            return self._kernel.peek((cell, port))
        return self._values.get((cell, port), X)

    # -- settle ----------------------------------------------------------------

    def _begin_cycle(self, inputs: Dict[str, Value]) -> None:
        """Clear the values of this engine and of every descendant, once
        per cycle, then drive ``inputs``: a port whose drivers are all
        inactive in this cycle reads X, in the top and in every child."""
        stack = [self]
        while stack:
            engine = stack.pop()
            engine._values = {}
            stack.extend(engine._children.values())
        values = self._values
        for name in self._input_names:
            values[(None, name)] = inputs.get(name, X)

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
                child_values = _settle_child(payload, values)
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
            child_values = _settle_child(node, values)
            for port, key in node.out_items:
                value = child_values.get((None, port), X)
                previous = values.get(key, X)
                if previous is not value and previous != value:
                    values[key] = value
                    changed = True
        return changed

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
