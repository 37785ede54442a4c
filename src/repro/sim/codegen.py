"""Kernel codegen: compile netlists to specialized Python simulation kernels.

The scheduled engine already levelizes a netlist once, but every simulated
cycle still pays interpreter tax: per-node dispatch through the schedule
loop, tuple-keyed ``_values`` dict lookups, and a rebuilt inputs dict per
primitive per cycle.  This module takes the standard next tier — the one
Verilator-style simulators take — and compiles each netlist **once** into
straight-line host code:

* every ``(cell, port)`` signal is interned to a slot index in a flat
  Python list (no dicts anywhere on the hot path);
* the levelized schedule is emitted as straight-line Python source — one
  statement group per node, with each stdlib primitive's semantics inlined
  as int/mask expressions, and each slot's value forwarded through a local
  after its one write;
* driver groups fold to direct moves or small if/elif chains for the
  overwhelmingly common single-assignment case (consecutive groups under
  one guard share one branch), with a slot-based resolver (still
  dict-free) for genuinely multi-driven ports;
* the sequential update (``tick``) is a separate straight-line function,
  with register state aliased onto the output slots it feeds, and a
  component with no state and no multi-driven port has none;
* hierarchy is compiled compositionally, as **segments**: a component's
  settle is one zero-argument function per stretch of its schedule between
  child cells.  The segment before a child writes the child's inputs
  straight into the child's slot list, and the segment after it reads the
  child's outputs back, so the segments of a whole hierarchy lie in one
  flat sequence.  A cycle runs that sequence and then the flat sequence
  of ticks in one loop each, at the same call depth however deep the
  hierarchy: no settle frame nests per level, so a deep design never makes
  the interpreter grow and shrink its frame stack once per cycle;
* a warm kernel fuses the runs of segments an earlier build compiled into
  **pieces** of up to 16 segments, one call each, which leave out the
  slot stores nothing reads back from its slot list (see *Fused pieces*
  below).

Code is generated per component, as one **chunk** per engine plan
(:class:`~repro.sim.engine._ComponentPlan`).  A chunk defines
``link(INIT, C)``, which binds the component's init table ``INIT`` and
its multi-driver group plans ``C`` and returns the component's factory
``make``.  ``make(sg, tk, rs, T)`` appends one instance's segments, ticks
and resets to the three lists the whole hierarchy shares, makes each
child through ``T``, the link table (component name → factory) of the
kernel being instantiated, and returns its slot list; a child's port
slots depend only on its interface, which is part of the plan key.  So a
chunk names nothing positional and its text depends on its plan alone:
every component, top or child, settles by one rule — a port whose drivers
are all inactive in a cycle reads X in that cycle.  A chunk is linked
once, when it is built, and finds its children at instantiation, so an
edit links only the chunks it changed.  The top's entry ``make_top``
is generated from the interface alone, the first time a chunk is linked
as a top, and kept on the chunk; its ``run(cycles, columns)`` has the
native kernel's columnar contract, so :meth:`ScheduledEngine.run_columns
<repro.sim.engine.ScheduledEngine.run_columns>` runs both kernel tiers
directly and ``run_batch``/``step`` convert rows at the engine boundary.
:func:`kernel_for` builds one engine's link table from the chunks its
plans keep; ``run_lanes`` without the native lane entry runs the kernel
once per stream.

Primitives registered by generator substrates — black boxes without an
inlinable template — call back into their interpreter model from inside the
generated kernel, so semantics never fork; netlists that the scheduler
itself rejected (``fallback_reason`` set anywhere in the hierarchy) never
reach codegen and run on the interpreter unchanged.

Compiled chunks are cached process-wide in memory (a
:class:`~repro.core.store.DigestCache`), keyed by the plan key, and a plan
keeps the chunk it was built with.
A plan key covers the printed component, its primitives' factories and its
children's interfaces but never their bodies, so rebuilding the same
design — across sessions, harnesses and conformance runs — hits every
chunk, and an edit to one component's body regenerates that component's
chunk alone; :class:`~repro.core.session.CompilationSession` reports the
hits next to its other stage timings.  Fused pieces have a cache of their
own, and :func:`kernel_cache_stats` counts them with the chunks.
:func:`netlist_digest`, the whole netlist's digest, keys the native tier's
in-memory program cache.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from itertools import accumulate, chain, repeat
from operator import attrgetter
from types import CodeType, FunctionType
from typing import Dict, List, Optional, Tuple

from ..core.errors import DriverConflictError
from ..core.store import DigestCache
from .engine import _CACHE_BOUND, _CHILD, _GROUP, _PRIM, _clear_plans
from .primitives import PrimitiveModel, create_primitive
from .values import Value, X, format_value

__all__ = [
    "KernelUnavailable",
    "CompiledKernelProgram",
    "kernel_for",
    "netlist_digest",
    "kernel_cache_stats",
    "kernel_cache_limit",
    "clear_kernel_cache",
]

#: A signal key, as in the engine: ``(cell_name_or_None, port_name)``.
_Key = Tuple[Optional[str], str]


class KernelUnavailable(Exception):
    """Codegen cannot produce a kernel for this netlist; the caller falls
    back to the scheduled interpreter (semantics are never at risk)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Runtime helpers shared by every generated kernel
# ---------------------------------------------------------------------------
#
# The generated source only inlines the *common* cases.  Multi-driven ports
# resolve through this slot-based helper, which mirrors the engine's
# ``_resolve_group`` bit for bit — including the conflicting-driver error —
# but reads slots instead of a keyed dict, and resolves a port no driver
# drives to X, the value it reads in that cycle.


def _resolve_slots(s: list, plan: tuple, cycle: int):
    """Scalar driver-group resolution over slots (see
    ``ScheduledEngine._resolve_group``)."""
    comp, group, assigns = plan
    actives: list = []
    active_values: list = []
    maybe_values: list = []
    for guard_idxs, src_idx, const, assign in assigns:
        if guard_idxs is None:
            active, possible = True, False
        else:
            active = unknown = False
            for idx in guard_idxs:
                guard = s[idx]
                if guard is X:
                    unknown = True
                elif guard != 0:
                    active = True
                    break
            possible = not active and unknown
        if not active and not possible:
            continue
        source = const if src_idx is None else s[src_idx]
        if active:
            actives.append(assign)
            active_values.append(source)
        else:
            maybe_values.append(source)
    concrete = [v for v in active_values if v is not X]
    if len(set(concrete)) > 1:
        drivers = ", ".join(str(assign.assignment) for assign in actives)
        raise DriverConflictError(
            comp, group.dst, cycle,
            f": {drivers} (values {[format_value(v) for v in active_values]})")
    result = concrete[0] if concrete else X
    if maybe_values and not (concrete and all(
            v is not X and v == result for v in maybe_values)):
        return X
    return result


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------

#: Scalar expression templates for the stdlib binary primitives
#: (``{a}``/``{b}`` are operand slot reads; the result is masked by the
#: caller where needed).
_SCALAR_BINARY = {
    "Add": "({a} + {b})",
    "FlexAdd": "({a} + {b})",
    "Sub": "({a} - {b})",
    "And": "({a} & {b})",
    "Or": "({a} | {b})",
    "Xor": "({a} ^ {b})",
    "MultComb": "({a} * {b})",
    "Eq": "(1 if {a} == {b} else 0)",
    "Neq": "(1 if {a} != {b} else 0)",
    "Lt": "(1 if {a} < {b} else 0)",
    "Gt": "(1 if {a} > {b} else 0)",
    "Le": "(1 if {a} <= {b} else 0)",
    "Ge": "(1 if {a} >= {b} else 0)",
}

#: Sequential multiplier latencies (``Mult``/``FastMult``/``PipelinedMult``
#: share one model class).
_MULT_LATENCY = {"Mult": 2, "FastMult": 2, "PipelinedMult": 3}


class _Lines:
    """A tiny indented-source builder."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.indent + line) if line else "")

    def text(self) -> str:
        return "\n".join(self.lines)


def _is_stdlib(model: PrimitiveModel) -> bool:
    """Whether ``model`` is one of the stdlib classes this module knows how
    to inline (a substrate overriding a stdlib name with its own class is
    treated as a black box, so semantics never fork)."""
    return type(model).__module__ == PrimitiveModel.__module__


def _port_slots(input_names, output_names) -> Dict[str, int]:
    """The slot of each of a component's own ports: inputs, then outputs,
    in declaration order (a name declared twice keeps its first slot).  A
    parent's chunk writes a child's inputs and reads its outputs at these
    slots, which depend on the child's interface alone."""
    return {name: slot for slot, name in enumerate(
        dict.fromkeys(tuple(input_names) + tuple(output_names)))}


class _ComponentCompiler:
    """Compiles one component plan to a kernel chunk over the component's
    own flat slot map (the native tier reuses the slot analysis)."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.name = plan.name
        self.schedule = plan.bind(plan.prim_nodes, plan.child_nodes)
        self.slots: Dict[_Key, int] = {}
        #: slot -> init value (default X).
        self.init: Dict[int, Value] = {}
        #: Extra per-primitive state slots (pipelined multiplier stages).
        self.extra_state: Dict[str, List[int]] = {}
        #: Multi-driver group plans by chunk-local name, bound from the
        #: chunk's ``C`` tuple in this order.
        self.constants: Dict[str, object] = {}
        #: Per black-box cell, the keys its ``combinational()`` reads
        #: *before* their defining node runs (possible because such models
        #: may not declare the dependency), and the union of those keys.
        self._early_reads = self._compute_early_blackbox_reads()
        self._early_read_keys = {key for keys in self._early_reads.values()
                                 for key in keys}
        #: Per cell, an identifier unique within the component: its position
        #: among the cells plus its name with every non-alphanumeric
        #: character replaced (the name alone maps ``p.q`` and ``p_q`` to
        #: one identifier).
        cells = [cell for cell, _, _ in plan.prims] + [
            node.cell for node in plan.child_nodes]
        self.idents: Dict[str, str] = {
            cell: f"{index}_" + "".join(ch if ch.isalnum() else "_"
                                        for ch in cell)
            for index, cell in enumerate(cells)}
        #: While a segment is emitted: slot -> the local holding its value,
        #: the slots the segment reads, the slots it stores, and its
        #: temporary-name counter.
        self._local: Dict[int, str] = {}
        self._reads: set = set()
        self._stored: set = set()
        self._temp = 0
        #: The slots the tick reads, gathered while it is emitted.
        self._tick_reads: set = set()
        #: Each emitted segment's body record (see *Fused pieces*), by the
        #: segment's function name.
        self.bodies: Dict[str, tuple] = {}
        self._collect_slots()

    # -- slot map --------------------------------------------------------------

    def _slot(self, key: _Key) -> int:
        index = self.slots.get(key)
        if index is None:
            index = len(self.slots)
            self.slots[key] = index
        return index

    def _collect_slots(self) -> None:
        plan = self.plan
        for name in _port_slots(plan.input_names, plan.output_names):
            self._slot((None, name))
        for node in plan.prim_nodes:
            for _, key in node.in_items:
                self._slot(key)
            for key in node.out_keys.values():
                self._slot(key)
        for node in plan.child_nodes:
            for _, key in node.in_items:
                self._slot(key)
            for _, key in node.out_items:
                self._slot(key)
        for group in plan.groups:
            self._slot(group.dst_key)
            for assign in group.assigns:
                for key in assign.guard_keys or ():
                    self._slot(key)
                if assign.src_key is not None:
                    self._slot(assign.src_key)
        # Dedicated state slots for registered primitives (kept apart from
        # the output slots so a post-cycle ``peek`` sees the settled value,
        # exactly like the interpreter's ``_values``), plus init values.
        for node in plan.prim_nodes:
            model = node.model
            if not _is_stdlib(model):
                continue
            name = model.name
            width = model.width

            def state_slot(tag: str, initial: Value) -> int:
                index = len(self.slots)
                self.slots[(node.cell, tag)] = index
                if initial is not X:
                    self.init[index] = initial
                return index

            if name in _MULT_LATENCY:
                # stage0 is the newest value, the last stage feeds ``out``.
                self.extra_state[node.cell] = [
                    state_slot(f"#stage{stage}", X)
                    for stage in range(_MULT_LATENCY[name])]
            elif name in ("Reg", "Register"):
                self.extra_state[node.cell] = [state_slot("#state", X)]
            elif name == "Delay":
                self.extra_state[node.cell] = [state_slot("#state", 0)]
            elif name in ("Prev", "ContPrev"):
                initial = 0 if model.param(1, 1) else X
                self.extra_state[node.cell] = [state_slot("#state", initial)]
            elif name == "DspMac":
                self.extra_state[node.cell] = [state_slot("#state", X)]
            elif name == "fsm":
                self.extra_state[node.cell] = [
                    state_slot(f"#tap{state}", 0)
                    for state in range(1, model.states)]
            elif name == "Const" and self._const_preloaded(node.cell):
                out = self.slots[(node.cell, "out")]
                self.init[out] = model.param(1, 0) & ((1 << width) - 1)
        # Single unconditional constant drives are preloaded, never
        # emitted — unless a black box reads the slot before the group's
        # schedule position, where the interpreter sees X rather than the
        # constant.
        for group in plan.groups:
            if self._preloaded(group):
                assign = group.assigns[0]
                self.init[self.slots[group.dst_key]] = assign.src_const

    def _preloaded(self, group) -> bool:
        return (len(group.assigns) == 1
                and group.assigns[0].guard_keys is None
                and group.assigns[0].src_key is None
                and group.dst_key not in self._early_read_keys)

    def _const_preloaded(self, cell: str) -> bool:
        """Whether a ``Const`` cell's output can live purely in the init
        table (no black box reads it before the Const node runs)."""
        return (cell, "out") not in self._early_read_keys

    # -- shared analysis -------------------------------------------------------

    def _compute_early_blackbox_reads(self) -> Dict[str, List[_Key]]:
        """Per black-box cell, the input keys whose defining node runs
        *later* in the schedule (never-defined keys stay X in their slots
        and need no handling).  Those reads force two things: the keys
        cannot be const-preloaded (the interpreter does not see the
        constant at that point), and the kernel clears them to X at the
        start of every settle, in the top and in every child (the
        interpreter's values, cleared once per cycle, read X there; slots
        persist)."""
        written = set((None, name) for name in self.plan.input_names)
        defined = set(written)
        for _kind, payload in self.schedule:
            if hasattr(payload, "out_keys"):
                defined.update(payload.out_keys.values())
            elif hasattr(payload, "out_items"):
                defined.update(key for _, key in payload.out_items)
            else:
                defined.add(payload.dst_key)
        reads: Dict[str, List[_Key]] = {}
        for kind, payload in self.schedule:
            if kind == _PRIM:
                model = payload.model
                if not _is_stdlib(model):
                    late = [key for _, key in payload.in_items
                            if key not in written and key in defined]
                    if late:
                        reads[payload.cell] = late
                written.update(payload.out_keys.values())
            elif kind == _GROUP:
                written.add(payload.dst_key)
            else:
                written.update(key for _, key in payload.out_items)
        return reads

    # -- chunk emission --------------------------------------------------------

    def emit_chunk(self) -> str:
        """The chunk source: ``link(INIT, C)`` binds the group plans from
        ``C`` and returns this component's factory ``make``."""
        body = _Lines()
        body.indent = 1
        self._emit_make(body)
        body.emit("return make")
        out = _Lines()
        out.emit(f"def link(INIT, C):  # component {self.name!r}")
        out.indent += 1
        for index, name in enumerate(self.constants):
            out.emit(f"{name} = C[{index}]")
        out.lines.extend(body.lines)
        return out.text()

    def _emit_make(self, out: _Lines) -> None:
        """``make(sg, tk, rs, T)`` builds one instance into the three
        lists the whole hierarchy shares and returns the slot list its
        parent writes inputs into and reads outputs from.  It appends its
        tick (when not empty) and its reset, then makes its children in
        schedule order through the kernel's link table ``T`` (component
        name → factory), each segment taking its place around the
        children's segments: a segment before a child reserves its place
        first, since it is defined only once the child's slot list
        exists.  Every instance is one pass, however deep the
        hierarchy."""
        plan = self.plan
        counted = self._counts_cycles()
        out.emit("def make(sg, tk, rs, T):")
        out.indent += 1
        out.emit("s = list(INIT)")
        if counted:
            out.emit("n = 0")
        for (cell, primitive, params), node in zip(plan.prims,
                                                   plan.prim_nodes):
            if not _is_stdlib(node.model):
                out.emit(f"m_{self._ident(cell)} = "
                         f"_mk({primitive!r}, {params!r})")
        if self._emit_tick(out, counted):
            out.emit("tk.append(tick)")
        self._emit_reset(out, counted)
        out.emit("rs.append(reset)")
        self._emit_segments(out)
        out.emit("return s")
        out.indent -= 1
        out.emit()

    def _ident(self, cell: str) -> str:
        return self.idents[cell]

    def _counts_cycles(self) -> bool:
        """Whether the component keeps a cycle count ``n``: only the
        multi-driver resolver reads it, for its conflict message."""
        return any(len(group.assigns) > 1 for group in self.plan.groups)

    # -- settle segments -------------------------------------------------------

    def _segments(self) -> List[Tuple[object, list, object]]:
        """The schedule split at its child cells, as ``(previous child,
        nodes, next child)`` per segment (``None`` at either end)."""
        segments = []
        previous, nodes = None, []
        for kind, payload in self.schedule:
            if kind == _CHILD:
                segments.append((previous, nodes, payload))
                previous, nodes = payload, []
            else:
                nodes.append((kind, payload))
        segments.append((previous, nodes, None))
        return segments

    def _segment_reads(self, nodes, next_child) -> set:
        """The slots a segment reads: a write to one of them is forwarded
        through a local."""
        sl = self.slots
        reads = set()
        for kind, payload in nodes:
            if kind == _PRIM:
                model = payload.model
                comb = model.combinational_inputs
                if comb is None or not _is_stdlib(model):
                    comb = model.inputs
                reads.update(sl[key] for port, key in payload.in_items
                             if port in comb)
            elif not self._preloaded(payload):
                for assign in payload.assigns:
                    reads.update(sl[key] for key in assign.guard_keys or ())
                    if assign.src_key is not None:
                        reads.add(sl[assign.src_key])
        if next_child is not None:
            reads.update(sl[key] for _, key in next_child.in_items)
        return reads

    def _pinned(self) -> set:
        """The slots read other than by a segment: by the tick, by a
        multi-driver resolver (its guards and sources, read from the slot
        list) or by a black box (every input, which its tick reads), the
        slots an early-read clear writes, and a port that is an input and
        an output at once."""
        plan = self.plan
        sl = self.slots
        pinned = set(self._tick_reads)
        pinned.update(sl[key] for key in self._early_read_keys)
        for group in plan.groups:
            if len(group.assigns) > 1:
                for assign in group.assigns:
                    pinned.update(sl[key] for key in assign.guard_keys or ())
                    if assign.src_key is not None:
                        pinned.add(sl[assign.src_key])
        pinned.update(sl[(None, name)] for name in
                      set(plan.input_names) & set(plan.output_names))
        return pinned

    def _emit_segments(self, out: _Lines) -> None:
        """Emit the children's ``make`` calls and ``sg0``, ``sg1``, ...
        between them (empty segments are left out), and keep each
        segment's body record (see *Fused pieces*) in :attr:`bodies` by
        its name: who reads each slot comes from the segments' read sets
        and :meth:`_pinned`."""
        plan = self.plan
        sl = self.slots
        segments = self._segments()
        reads = [self._segment_reads(nodes, next_child)
                 for _, nodes, next_child in segments]
        readers: Dict[int, set] = {}
        for index, slots in enumerate(reads):
            for slot in slots:
                readers.setdefault(slot, set()).add(index)
        pinned = self._pinned()
        inputs = {sl[(None, name)] for name in plan.input_names}
        outputs = {sl[(None, name)] for name in plan.output_names}
        nowhere: set = set()
        for index, (previous, nodes, next_child) in enumerate(segments):
            body = _Lines()
            body.indent = out.indent + 1
            self._local = {}
            self._reads = reads[index]
            self._stored = set()
            self._temp = 0
            here = {index}
            if index == 0:
                for cell, keys in self._early_reads.items():
                    for key in keys:
                        body.emit(f"s[{self.slots[key]}] = X  # {cell} "
                                  f"reads {key} before its driver runs")
            if previous is not None:
                self._emit_child_outputs(body, previous)
            self._emit_nodes(body, nodes)
            lines = len(body.lines)
            feeds: List[Tuple[int, str]] = []
            if next_child is not None:
                feeds = self._emit_child_inputs(body, next_child)
                if body.lines:
                    out.emit("at = len(sg)")
                    out.emit("sg.append(None)")
                out.emit(f"c_{self._ident(next_child.cell)} = "
                         f"T[{next_child.component!r}](sg, tk, rs, T)")
            if body.lines:
                # The slot lists and X bind as defaults: fast locals in
                # place of closure cells and a module global.
                kids = "".join(f", c_{ident}=c_{ident}" for ident in (
                    self._ident(child.cell)
                    for child in (previous, next_child) if child is not None))
                out.emit(f"def sg{index}(s=s, X=X{kids}):")
                out.lines.extend(body.lines)
                out.emit()
                out.emit(f"sg[at] = sg{index}" if next_child is not None
                         else f"sg.append(sg{index})")
                text = [line.split("  # ", 1)[0] for line in body.lines]
                stored = self._stored
                kid = "" if next_child is None else (
                    f"c_{self._ident(next_child.cell)}")
                stored_outputs = sorted(stored & outputs)
                self.bodies[f"sg{index}"] = (
                    "\n".join(text[:lines]),
                    tuple((line, kid, slot, value) for line, (slot, value)
                          in zip(text[lines:], feeds)),
                    tuple(sorted(stored & self._reads)),
                    tuple(sorted(
                        slot for slot in stored - inputs - outputs - pinned
                        if readers.get(slot, nowhere) <= here)),
                    tuple(sorted(
                        slot for slot in inputs - pinned
                        if readers.get(slot) == here)),
                    tuple(stored_outputs),
                    tuple(slot for slot in stored_outputs
                          if slot not in pinned
                          and readers.get(slot, nowhere) <= here))

    def _new_temp(self, prefix: str) -> str:
        self._temp += 1
        return f"{prefix}{self._temp}"

    def _rd(self, slot: int, local: Optional[Dict[int, str]] = None) -> str:
        """A read of ``slot``: its local when one holds it, else the slot."""
        return (self._local if local is None else local).get(
            slot, f"s[{slot}]")

    def _name(self, out: _Lines, slot: int) -> str:
        """A local holding ``slot``'s value, loaded on first use (an
        expression that reads an operand more than once needs a name)."""
        name = self._local.get(slot)
        if name is None:
            name = self._local[slot] = f"v{slot}"
            out.emit(f"{name} = s[{slot}]")
        return name

    def _target(self, slot: int) -> str:
        """The target of a write to ``slot``: its local too when the
        segment reads the slot.  Every store of a segment's own slot is
        written through here, first on its line."""
        self._stored.add(slot)
        return f"v{slot} = s[{slot}]" if slot in self._reads else f"s[{slot}]"

    def _set(self, slot: int, expr: str) -> str:
        """The statement writing ``expr`` to ``slot``; later reads in the
        segment use the local it forwards the value through."""
        if slot in self._reads:
            self._local[slot] = f"v{slot}"
        return f"{self._target(slot)} = {expr}"

    @staticmethod
    def _child_slots(node) -> Dict[str, int]:
        """The slot of each of a child's ports in the child's slot list."""
        return _port_slots([port for port, _ in node.in_items],
                           [port for port, _ in node.out_items])

    def _emit_child_outputs(self, out: _Lines, node) -> None:
        ports = self._child_slots(node)
        ident = self._ident(node.cell)
        for port, key in node.out_items:
            out.emit(self._set(self.slots[key], f"c_{ident}[{ports[port]}]")
                     + f"  # {node.cell}.{port}")

    def _emit_child_inputs(self, out: _Lines, node) -> List[Tuple[int, str]]:
        """The stores of a child's inputs, one line each, last in the
        segment before the child; returns each one's child slot and
        value."""
        ports = self._child_slots(node)
        ident = self._ident(node.cell)
        feeds = []
        for port, key in node.in_items:
            value = self._rd(self.slots[key])
            out.emit(f"c_{ident}[{ports[port]}] = {value}"
                     f"  # {node.cell}.{port}")
            feeds.append((ports[port], value))
        return feeds

    def _emit_nodes(self, out: _Lines, nodes) -> None:
        """A segment's primitives and groups in schedule order, consecutive
        single-driver groups under the same guard gathered into runs."""
        run: list = []
        for kind, payload in nodes:
            if kind == _GROUP:
                if self._preloaded(payload):
                    continue
                assigns = payload.assigns
                if len(assigns) == 1 and assigns[0].guard_keys is not None:
                    if run and (run[0].assigns[0].guard_keys
                                != assigns[0].guard_keys):
                        self._emit_guarded_run(out, run)
                        run = []
                    run.append(payload)
                    continue
            if run:
                self._emit_guarded_run(out, run)
                run = []
            if kind == _PRIM:
                self._emit_prim(out, payload)
            else:
                self._emit_group(out, payload)
        if run:
            self._emit_guarded_run(out, run)

    def _emit_prim(self, out: _Lines, node) -> None:
        model = node.model
        cell = node.cell
        sl = self.slots
        if not _is_stdlib(model):
            items = ", ".join(f"{port!r}: {self._rd(sl[key])}"
                              for port, key in node.in_items)
            result = self._new_temp("bo")
            out.emit(f"{result} = m_{self._ident(cell)}"
                     f".combinational({{{items}}})  # black box {cell}")
            for port, key in node.out_keys.items():
                # A port the model leaves out reads X in this cycle.
                out.emit(self._set(sl[key], f"{result}.get({port!r}, X)"))
            return
        name = model.name
        width = model.width
        mask = (1 << width) - 1

        def operand(port: str) -> str:
            return self._name(out, sl[(cell, port)])

        def emit(port: str, expr: str, comment: str) -> None:
            out.emit(self._set(sl[(cell, port)], expr) + f"  # {comment}")

        if name in _SCALAR_BINARY:
            a, b = operand("left"), operand("right")
            out_width = getattr(model, "_output_width", None)
            if out_width is not None:
                mask = (1 << out_width) - 1
            expr = _SCALAR_BINARY[name].format(a=a, b=b)
            emit("out", f"X if {a} is X or {b} is X else {expr} & "
                        f"{hex(mask)}", f"{cell} = {name}[{width}]")
        elif name == "Not":
            a = operand("in")
            emit("out", f"X if {a} is X else (~{a}) & {hex(mask)}",
                 f"{cell} = Not[{width}]")
        elif name == "Mux":
            c = operand("sel")
            v = self._new_temp("t")
            out.emit(f"{v} = X if {c} is X else "
                     f"({self._rd(sl[(cell, 'in1')])} if {c} "
                     f"else {self._rd(sl[(cell, 'in0')])})")
            emit("out", f"{v} if {v} is X else {v} & {hex(mask)}",
                 f"{cell} = Mux[{width}]")
        elif name == "Slice":
            hi = model.param(1, width - 1)
            lo = model.param(2, 0)
            v = operand("in")
            emit("out", f"X if {v} is X else ({v} >> {lo}) & "
                        f"{hex((1 << (hi - lo + 1)) - 1)}",
                 f"{cell} = Slice[{width},{hi},{lo}]")
        elif name == "Concat":
            wh = model.param(0, 32)
            wl = model.param(1, 32)
            h, l = operand("hi"), operand("lo")
            emit("out", f"X if {h} is X or {l} is X else "
                        f"((({h} & {hex((1 << wh) - 1)}) << {wl}) | "
                        f"({l} & {hex((1 << wl) - 1)}))",
                 f"{cell} = Concat[{wh},{wl}]")
        elif name in ("ShiftLeft", "ShiftRight"):
            by = model.param(1, 1)
            op = "<<" if name == "ShiftLeft" else ">>"
            v = operand("in")
            emit("out", f"X if {v} is X else ({v} {op} {by}) & {hex(mask)}",
                 f"{cell} = {name}[{width},{by}]")
        elif name == "Const":
            if not self._const_preloaded(cell):
                # An early black-box read precedes this node, so the value
                # must appear at the node's schedule position, not at init.
                emit("out", str(model.param(1, 0) & mask),
                     f"{cell} = Const[{width}] (early reader)")
        elif name == "fsm":
            g = operand("go")
            emit("_0", f"X if {g} is X else (1 if {g} != 0 else 0)",
                 f"{cell} = fsm[{model.states}]")
            for state, tap in enumerate(self.extra_state[cell], start=1):
                emit(f"_{state}", f"s[{tap}]", f"{cell} tap {state}")
        elif name in ("Reg", "Register", "Delay", "Prev", "ContPrev",
                      "DspMac") or name in _MULT_LATENCY:
            port = ("prev" if name in ("Prev", "ContPrev")
                    else "pout" if name == "DspMac" else "out")
            emit(port, f"s[{self.extra_state[cell][-1]}]",
                 f"{cell} = {name}[{width}] registered output")
        else:  # pragma: no cover - registry names are closed above
            raise KernelUnavailable(f"no scalar template for {name}")

    def _scalar_src(self, assign, local=None) -> str:
        if assign.src_key is None:
            return repr(assign.src_const)
        return self._rd(self.slots[assign.src_key], local)

    def _emit_guarded_run(self, out: _Lines, run) -> None:
        """Consecutive single-driver groups under one guard, as one branch:
        every destination takes its source while a guard port is known
        non-zero, and X otherwise."""
        sl = self.slots
        guards = [self._name(out, sl[key])
                  for key in run[0].assigns[0].guard_keys]
        active = " or ".join(f"({g} is not X and {g} != 0)" for g in guards)
        dsts = [sl[group.dst_key] for group in run]
        forwarded = [d for d in dsts if d in self._reads]
        out.emit(f"if {active}:")
        local = dict(self._local)
        for group, d in zip(run, dsts):
            assign = group.assigns[0]
            out.emit(f"    {self._target(d)} = "
                     f"{self._scalar_src(assign, local)}"
                     f"  # {group.dst} = {assign.assignment.src}")
            if d in self._reads:
                local[d] = f"v{d}"
        out.emit("else:")
        for d in dsts:
            out.emit(f"    {self._target(d)} = X")
        for d in forwarded:
            self._local[d] = f"v{d}"

    def _emit_group(self, out: _Lines, group) -> None:
        d = self.slots[group.dst_key]
        if len(group.assigns) == 1:
            assign = group.assigns[0]
            out.emit(self._set(d, self._scalar_src(assign))
                     + f"  # {group.dst} = {assign.assignment.src}")
            return
        # Multi-driven port: the slot-based resolver (dict-free, exact
        # conflict semantics).
        plan_name = f"gp{d}"
        self.constants[plan_name] = (
            self.name, group,
            tuple((tuple(self.slots[key] for key in assign.guard_keys)
                   if assign.guard_keys is not None else None,
                   (self.slots[assign.src_key]
                    if assign.src_key is not None else None),
                   assign.src_const, assign)
                  for assign in group.assigns))
        out.emit(self._set(d, f"_rg(s, {plan_name}, n)")
                 + f"  # {group.dst}: {len(group.assigns)} drivers")

    # -- tick and reset --------------------------------------------------------

    def _emit_tick(self, out: _Lines, counted: bool) -> bool:
        """Emit ``tick()`` — this component's own sequential update, its
        children tick on their own — unless it would be empty; returns
        whether it was emitted."""
        header = len(out.lines)
        out.emit("def tick(s=s):")
        out.indent += 1
        if counted:
            out.emit("nonlocal n")
        temp = [0]

        def new_temp(prefix: str = "t") -> str:
            temp[0] += 1
            return f"{prefix}{temp[0]}"

        sl = self.slots
        for node in self.plan.prim_nodes:
            model = node.model
            cell = node.cell
            if not _is_stdlib(model):
                self._tick_reads.update(sl[key] for _, key in node.in_items)
                items = ", ".join(f"{port!r}: s[{sl[key]}]"
                                  for port, key in node.in_items)
                out.emit(f"m_{self._ident(cell)}.tick({{{items}}})"
                         f"  # black box {cell}")
                continue
            name = model.name
            width = model.width
            mask = (1 << width) - 1

            def rd(port: str) -> str:
                slot = sl[(cell, port)]
                self._tick_reads.add(slot)
                return f"s[{slot}]"

            if name in ("Reg", "Register", "Prev"):
                d = self.extra_state[cell][0]
                e, v = new_temp("e"), new_temp("v")
                out.emit(f"{e} = {rd('en')}  # {cell} = {name}[{width}]")
                out.emit(f"if {e} is X:")
                out.emit(f"    s[{d}] = X")
                out.emit(f"elif {e} != 0:")
                out.emit(f"    {v} = {rd('in')}")
                out.emit(f"    s[{d}] = {v} if {v} is X else {v} & {hex(mask)}")
            elif name in ("Delay", "ContPrev"):
                d = self.extra_state[cell][0]
                v = new_temp("v")
                out.emit(f"{v} = {rd('in')}  # {cell} = {name}[{width}]")
                out.emit(f"s[{d}] = {v} if {v} is X else {v} & {hex(mask)}")
            elif name in _MULT_LATENCY:
                stages = self.extra_state[cell]  # newest .. oldest
                l, r, p = new_temp("l"), new_temp("r"), new_temp("p")
                out.emit(f"{l} = {rd('left')}; {r} = {rd('right')}"
                         f"  # {cell} = {name}[{width}]")
                out.emit(f"{p} = X if {l} is X or {r} is X "
                         f"else ({l} * {r}) & {hex(mask)}")
                for older, newer in zip(reversed(stages[1:]),
                                        reversed(stages[:-1])):
                    out.emit(f"s[{older}] = s[{newer}]")
                out.emit(f"s[{stages[0]}] = {p}")
            elif name == "DspMac":
                d = self.extra_state[cell][0]
                e = new_temp("e")
                a, b, acc = new_temp(), new_temp(), new_temp("p")
                out.emit(f"{e} = {rd('ce')}  # {cell} = DspMac[{width}]")
                out.emit(f"if {e} is X:")
                out.emit(f"    s[{d}] = X")
                out.emit(f"elif {e} != 0:")
                out.emit(f"    {a} = {rd('a')}; {b} = {rd('b')}")
                out.emit(f"    if {a} is X or {b} is X:")
                out.emit(f"        s[{d}] = X")
                out.emit("    else:")
                out.emit(f"        {acc} = {rd('pin')}")
                out.emit(f"        s[{d}] = ({a} * {b} + "
                         f"(0 if {acc} is X else {acc})) & {hex(mask)}")
            elif name == "fsm":
                states = model.states
                if states > 1:
                    taps = self.extra_state[cell]  # _1 .. _{states-1}
                    out.emit(f"# {cell} = fsm[{states}] shift")
                    for k in range(len(taps) - 1, 0, -1):
                        out.emit(f"s[{taps[k]}] = s[{taps[k - 1]}]")
                    out.emit(f"s[{taps[0]}] = {rd('_0')}")
        if counted:
            out.emit("n += 1")
        out.indent -= 1
        if len(out.lines) == header + 1:
            del out.lines[header:]
            return False
        out.emit()
        return True

    def _emit_reset(self, out: _Lines, counted: bool) -> None:
        out.emit("def reset(s=s):")
        out.indent += 1
        if counted:
            out.emit("nonlocal n")
            out.emit("n = 0")
        out.emit("s[:] = INIT")
        for node in self.plan.prim_nodes:
            if not _is_stdlib(node.model):
                out.emit(f"m_{self._ident(node.cell)}.reset()")
        out.indent -= 1
        out.emit()

    def scalar_init(self) -> Tuple[Value, ...]:
        values: List[Value] = [X] * len(self.slots)
        for index, value in self.init.items():
            values[index] = value
        return tuple(values)

# ---------------------------------------------------------------------------
# Slot width / limb planning (shared with the native tier)
# ---------------------------------------------------------------------------


def slot_width_hints(compiler: _ComponentCompiler) -> Dict[int, int]:
    """Conservative bit-width upper bound per slot of ``compiler``'s slot
    map, derived from declared port widths and primitive width hints.

    A hint bounds what the *defining node* can write into the slot (prim
    templates mask their outputs, top-level inputs are masked at the
    boundary); values copied through driver groups or child ports can be
    wider than the destination's hint — :func:`plan_slot_limbs` propagates
    those, so together the two give the exact storage each slot needs to
    hold the same unmasked Python ints the interpreter keeps."""
    plan = compiler.plan
    port_widths = plan.widths
    prim_hints = {node.cell: max(1, node.model.width_hint)
                  for node in plan.prim_nodes}
    child_ports = {node.cell: node.widths for node in plan.child_nodes}
    hints: Dict[int, int] = {}
    for (cell, port), slot in compiler.slots.items():
        if cell is None:
            width = port_widths.get(port, 64)
        elif cell in prim_hints:
            width = prim_hints[cell]
        elif cell in child_ports:
            width = child_ports[cell].get(port, 64)
        else:  # pragma: no cover - every cell is a prim or a child
            width = 64
        hints[slot] = max(1, width)
    return hints


def plan_slot_limbs(compilers: Dict[str, _ComponentCompiler]
                    ) -> Dict[str, Dict[int, int]]:
    """Per component, the 64-bit limb count each slot needs so that no
    copy anywhere in the hierarchy truncates.

    Python slot values are *unmasked*: a driver group stores the source's
    full int, a child port copy forwards it, and readers (guards, compare
    primitives, multi-driver equality) see every bit.  Limb counts
    therefore start from the width hints and grow to a fixpoint over the
    copy edges — group source → group destination, parent slot → child
    input, child output → parent slot — plus literal init/constant values.
    Widening is always safe (copies zero-extend); the fixpoint is monotone
    and bounded by the largest initial hint, so it terminates."""
    def limbs_for_bits(bits: int) -> int:
        return max(1, (bits + 63) // 64)

    limbs = {name: {slot: limbs_for_bits(hint)
                    for slot, hint in slot_width_hints(compiler).items()}
             for name, compiler in compilers.items()}
    for name, compiler in compilers.items():
        for slot, value in compiler.init.items():
            if value is not X and isinstance(value, int) and value >= 0:
                limbs[name][slot] = max(limbs[name][slot],
                                        limbs_for_bits(value.bit_length()))
    changed = True
    while changed:
        changed = False
        for name, compiler in compilers.items():
            table = limbs[name]
            for group in compiler.plan.groups:
                dst = compiler.slots[group.dst_key]
                need = table[dst]
                for assign in group.assigns:
                    if assign.src_key is not None:
                        need = max(need, table[compiler.slots[assign.src_key]])
                    elif (assign.src_const is not X
                          and isinstance(assign.src_const, int)
                          and assign.src_const >= 0):
                        need = max(need, limbs_for_bits(
                            assign.src_const.bit_length()))
                if need > table[dst]:
                    table[dst] = need
                    changed = True
            for node in compiler.plan.child_nodes:
                child_name = node.component
                child_compiler = compilers[child_name]
                child_table = limbs[child_name]
                for port, key in node.in_items:
                    child_slot = child_compiler.slots[(None, port)]
                    if table[compiler.slots[key]] > child_table[child_slot]:
                        child_table[child_slot] = table[compiler.slots[key]]
                        changed = True
                for port, key in node.out_items:
                    child_slot = child_compiler.slots[(None, port)]
                    if child_table[child_slot] > table[compiler.slots[key]]:
                        table[compiler.slots[key]] = child_table[child_slot]
                        changed = True
    return limbs


# ---------------------------------------------------------------------------
# Chunks, linking and the chunk cache
# ---------------------------------------------------------------------------


def netlist_digest(engine) -> str:
    """A stable digest of the netlist reachable from ``engine`` — the key
    of the native tier's loaded programs in one process.

    Beyond the printed structure (each plan's printed text), the digest
    covers each primitive cell's *model class identity*: the
    inline-vs-black-box decision (and the inlined semantics) depend on
    which class the registry produced, so a ``register_primitive``
    override of a stdlib name must miss rather than reuse a kernel built
    for the old model."""
    parts = [engine.component.name]
    for plan in engine._reachable_plans():
        parts.append(plan.text)
        for prim in plan.prim_nodes:
            model_type = type(prim.model)
            parts.append(f"{prim.cell}:{model_type.__module__}."
                         f"{model_type.__qualname__}")
    return hashlib.sha256("\n\n".join(parts).encode()).hexdigest()


def _input_columns(cycles: int, columns, names: Tuple[str, ...],
                   masks: Tuple[int, ...]) -> list:
    """Per input port, in ``names`` order, the values a columnar run drives
    on each of ``cycles`` cycles, as ``columns_to_rows`` and
    ``ScheduledEngine._checked_rows`` would give them: a column is cut at
    ``cycles``, X where flagged, every other value masked to its port's
    width, and a missing port or a short column idles at X.  A clean
    column, unflagged and in range, is driven as it stands."""
    prepared = []
    for name, mask in zip(names, masks):
        column = columns.get(name)
        if column is None:
            prepared.append(repeat(X, cycles))
            continue
        values, xflags = column
        if len(values) > cycles:
            values = values[:cycles]
        if len(xflags) > cycles:
            xflags = xflags[:cycles]
        try:
            clean = (len(values) == cycles and not any(xflags)
                     and (not values or (min(values) >= 0
                                         and max(values) <= mask)))
        except TypeError:  # an X among the values
            clean = False
        prepared.append(values if clean else _masked_column(
            cycles, values, xflags, mask))
    return prepared


def _masked_column(cycles: int, values, xflags, mask: int) -> list:
    """:func:`_input_columns` of a column that is flagged, out of range or
    short."""
    if any(xflags):
        values = [X if x else value for value, x in zip(values, xflags)]
    column = [value if value is X else value & mask for value in values]
    column.extend(repeat(X, cycles - len(column)))
    return column


def _output_columns(names: Tuple[str, ...], traces: Tuple[list, ...]
                    ) -> Dict[str, Tuple[list, bytearray]]:
    """Per output port, its ``(values, xflags)`` column from the values a
    columnar run read each cycle (an X reads as 0, flagged)."""
    out = {}
    for name, trace in zip(names, traces):
        if X in trace:
            out[name] = ([0 if value is X else value for value in trace],
                         bytearray([value is X for value in trace]))
        else:
            out[name] = (trace, bytearray(len(trace)))
    return out


def _top_entry(plan) -> Tuple[object, str]:
    """The top entry of ``plan``'s component and its source.
    ``make_top(segments, ticks, resets, s)`` wraps one instance — its
    segments, ticks and resets laid flat, and the top's slot list — and
    returns ``(run, reset)``.  ``run(cycles, columns)`` has the native
    kernel's contract: ``columns`` maps input port name → ``(values,
    xflags)``, and it returns one ``(values, xflags)`` column of
    ``cycles`` entries per output port.  Each cycle writes the inputs, runs
    every segment, reads the outputs and runs every tick.  Only the
    interface enters the text, at the slots :func:`_port_slots` gives,
    with each input's width mask."""
    slots = _port_slots(plan.input_names, plan.output_names)
    inputs = tuple(dict.fromkeys(plan.input_names))
    outputs = tuple(dict.fromkeys(plan.output_names))
    masks = tuple(plan.input_masks[name] for name in inputs)
    ins = [f"i{index}" for index in range(len(inputs))]
    reads = [f"v{index}" for index in range(len(inputs))]
    outs = [f"o{index}" for index in range(len(outputs))]
    out = _Lines()
    out.emit("def make_top(segments, ticks, resets, s):"
             f"  # top entry of component {plan.name!r}")
    out.indent += 1
    out.emit("def run(n, columns):")
    out.indent += 1
    if inputs:
        out.emit(f"{', '.join(ins)}, = _ins(n, columns, {inputs!r}, "
                 f"({', '.join(hex(mask) for mask in masks)},))")
    for name in outs:
        out.emit(f"{name} = []")
        out.emit(f"a{name} = {name}.append")
    if not inputs:
        out.emit("for _ in range(n):")
    elif len(inputs) == 1:
        out.emit("for v0 in i0:")
    else:
        out.emit(f"for {', '.join(reads)} in zip({', '.join(ins)}):")
    out.indent += 1
    for name, read in zip(inputs, reads):
        out.emit(f"s[{slots[name]}] = {read}")
    out.emit("for f in segments:")
    out.emit("    f()")
    for name, trace in zip(outputs, outs):
        out.emit(f"a{trace}(s[{slots[name]}])")
    out.emit("for f in ticks:")
    out.emit("    f()")
    out.indent -= 1
    out.emit(f"return _outs({outputs!r}, ({''.join(o + ', ' for o in outs)}))")
    out.indent -= 1
    out.emit("def reset():")
    out.emit("    for f in resets:")
    out.emit("        f()")
    out.emit("return run, reset")
    source = out.text()
    namespace = {"X": X, "_ins": _input_columns, "_outs": _output_columns}
    exec(compile(source, f"<kernel {plan.name} top>", "exec"), namespace)
    return namespace["make_top"], source


class _Chunk:
    """One component's compiled chunk: its factory ``make``, its slot
    map, its source text, each segment's body record by the segment's
    code object (what fused pieces are built from) and, once it has been
    linked as a top, its top entry and that entry's source
    (:func:`_top_entry`)."""

    __slots__ = ("make", "slots", "source", "bodies", "top")

    def __init__(self, plan) -> None:
        self.top: Optional[Tuple[object, str]] = None
        compiler = _ComponentCompiler(plan)
        self.source = compiler.emit_chunk()
        namespace = {"X": X, "_rg": _resolve_slots,
                     "_mk": create_primitive}
        try:
            exec(compile(self.source, f"<kernel {plan.name}>", "exec"),
                 namespace)
        except SyntaxError as error:  # pragma: no cover - generator bug guard
            raise KernelUnavailable(f"generated source failed to compile: "
                                    f"{error}") from error
        self.make = namespace["link"](
            compiler.scalar_init(), tuple(compiler.constants.values()))
        self.slots = compiler.slots
        self.bodies: Dict[CodeType, tuple] = {
            code: compiler.bodies[code.co_name]
            for code in self.make.__code__.co_consts
            if type(code) is CodeType and code.co_name in compiler.bodies}


# ---------------------------------------------------------------------------
# Fused pieces
# ---------------------------------------------------------------------------
#
# A warm kernel is mostly chunks an earlier build already compiled, and a
# cycle calls each of their segments in turn.  At instantiation every
# maximal run of two or more segments whose chunks were not generated in
# this build is replaced by pieces of at most ``_PIECE_SEGMENTS``
# segments, each one function whose body is the run's bodies one after
# the other, every local suffixed with the segment's place in the piece.
# Its parameters are the distinct objects the segments bind as defaults,
# bound as its own defaults and named ``p<n>`` in order of appearance: a
# parent's ``c_<ident>`` and its child's ``s`` are one list, so they are
# one name.  A piece runs the same statements in the same order over the
# same slot lists as the calls it replaces, less the stores nothing reads:
#
# * in a segment whose slot list is not the top's, a store to a slot
#   that is not a port and that no other segment, no tick, multi-driver
#   resolver or black box reads keeps only its local;
# * a value stored at a child boundary is forwarded through its local
#   into the next segment of the piece when that segment reads it: a
#   parent's store of a child input into the child's segment, a child's
#   store of an output into its parent's segment after it.  The store
#   goes too when that segment is the slot's one reader and the store is
#   not in a segment of the top.
#
# ``peek`` and ``outputs`` read the top's slot list alone, whose stores
# all stay, and every other reader keeps the stores it reads, so no trace,
# ``peek`` or conflict changes.  A run's pieces are compiled the first
# time the run is instantiated with its aliasing and its top segments,
# and kept (``_RUNS``), so later instances only bind them; a first build
# generates every chunk, so it fuses nothing.  Ticks, and segments with
# free variables (a multi-driver resolver's group plans and cycle count,
# a black box's model), stay separate calls.
#
# A segment's **body record**, kept by its chunk, is the tuple ``(text,
# feeds, local, drops, sole, outputs, private)``: ``text`` is its body
# without comments and without ``feeds``, the stores of the next child's
# inputs that end it, each ``(line, list name, child slot, value)``;
# the rest are tuples of slots: ``local``, those it stores through a
# local ``v<slot>``; ``drops``, those it stores that are not ports and
# that no other segment, no tick, resolver or black box reads; ``sole``,
# the input ports it alone reads; ``outputs``, the output ports it
# stores, and ``private``, those of them nothing but the parent reads.

#: Most segments one piece holds.  Compiling one function from a whole
#: run of a deep chain's segments costs megabytes of peak memory; pieces
#: of 16 cost a quarter of that and leave the calls per cycle at
#: ``ceil(run / 16)``.
_PIECE_SEGMENTS = 16

#: The pieces of every run fused so far as ``(start, stop, code)``, keyed
#: by the ids of the run's segments' code objects, how their defaults
#: alias and where the top's slot list is among them; an entry ``(codes,
#: pieces)`` keeps those code objects, so the ids stay theirs.
_RUNS = DigestCache(256)

#: Pieces compiled (``"compiled"``) and pieces bound without a compile
#: (``"reused"``).
_PIECE_COUNTS: Counter = Counter()

#: A name, with the slot index after it when it is subscripted, and the
#: `` = `` after that when the subscript is stored to.
_TOKEN = re.compile(r"\b([A-Za-z_]\w*)(?:\[(\d+)\]( = )?)?")


def _slices(length: int) -> List[Tuple[int, int]]:
    """The pieces of a run of ``length`` segments as ``(start, stop)``:
    consecutive slices of at most :data:`_PIECE_SEGMENTS`, a last single
    segment left out (it stays a call of its own)."""
    return [(start, min(start + _PIECE_SEGMENTS, length))
            for start in range(0, length, _PIECE_SEGMENTS)
            if length - start > 1]


def _renumbered(labels: tuple, top: Optional[int]
                ) -> Tuple[tuple, Optional[int]]:
    """``labels``, one per default of a piece's segments, equal where the
    defaults are one object, renumbered ``0, 1, ...`` in order of first
    appearance, and the number of the label ``top`` (``None`` when it is
    not among them): the piece's aliasing, equal for equal slices."""
    order = {label: number
             for number, label in enumerate(dict.fromkeys(labels))}
    return tuple(map(order.__getitem__, labels)), order.get(top)


def _renamer(names: Dict[str, str], lists: Dict[str, int],
             forward: Dict[Tuple[int, str], str], stores: Dict[str, str]):
    """The replacement of each :data:`_TOKEN` in one place's text: a name
    by ``names`` (itself when absent), a read of a list's slot by the
    value the place before forwarded for it (``forward``, by the list's
    number in ``lists``), and a store to the place's own slot list ``s``
    by ``stores`` (a renamed store when absent)."""
    def rename(match) -> str:
        name, index, store = match.groups()
        if index is None:
            return names.get(name, name)
        if store is None:
            value = forward.get((lists.get(name), index))
            return (f"{names.get(name, name)}[{index}]" if value is None
                    else value)
        if name == "s" and index in stores:
            return stores[index]
        return f"{names[name]}[{index}] = "
    return rename


def _compile_piece(codes: Tuple[CodeType, ...], pattern: tuple,
                   top: Optional[int],
                   bodies: Dict[CodeType, tuple]) -> CodeType:
    """The code of one piece over the segments whose code objects are
    ``codes`` and whose defaults alias as ``pattern`` numbers them
    (:func:`_renumbered`; ``top`` is the number of the top's slot list):
    their bodies in order, each default named ``p<number>`` and each
    local suffixed ``_<place>``, less the stores nothing reads (see *Fused
    pieces*).  One pass over the bodies, each place looking at the next
    alone."""
    starts = list(accumulate((code.co_argcount for code in codes),
                             initial=0))
    lines: List[str] = []
    forward: Dict[Tuple[int, str], str] = {}
    for place, code in enumerate(codes):
        text, feeds, local, drops, _, outputs, private = bodies[code]
        argc = code.co_argcount
        lists = dict(zip(code.co_varnames,
                         pattern[starts[place]:starts[place + 1]]))
        own = lists["s"]
        suffix = f"_{place}"
        names = {name: f"p{number}" for name, number in lists.items()}
        names.update((name, name + suffix)
                     for name in code.co_varnames[argc:])
        if place + 1 < len(codes):
            after = pattern[starts[place + 1]:starts[place + 2]]
            sole = bodies[codes[place + 1]][4]  # the next segment's
        else:
            after, sole = (), ()
        kept = own == top
        # Each stored slot's index -> the text that replaces "s[<index>] = ".
        stores: Dict[str, str] = {}
        if not kept:
            for slot in drops:
                stores[str(slot)] = ("" if slot in local
                                     else f"v{slot}{suffix} = ")
        # Values forwarded to the next place: (list number, index) -> text.
        passed: Dict[Tuple[int, str], str] = {}
        if own in after[1:]:  # the next place is the parent's, after us
            for slot in outputs:
                held = f"v{slot}{suffix}"
                passed[(own, str(slot))] = held
                store = "" if slot in local else f"{held} = "
                stores[str(slot)] = (store if slot in private
                                     else f"{store}p{own}[{slot}] = ")
        rename = _renamer(names, lists, forward, stores)
        if text:
            lines.append(_TOKEN.sub(rename, text))
        for line, kid, slot, value in feeds:
            child = lists[kid]
            if after and after[0] == child:
                passed[(child, str(slot))] = _TOKEN.sub(rename, value)
                if slot in sole and not kept:
                    continue
            lines.append(_TOKEN.sub(rename, line))
        forward = passed
    params = ", ".join(f"p{number}" for number in range(max(pattern) + 1))
    source = f"def piece({params}):\n" + "\n".join(lines)
    module = compile(source, "<kernel piece>", "exec")
    return next(const for const in module.co_consts
                if type(const) is CodeType)


class CompiledKernelProgram:
    """One engine's linked kernel: the plans it links (children first),
    the link table from component name to linked factory, the top's entry
    ``make_top``, the top's slot map and :attr:`fresh`, the ids of the
    code objects of the segments of the chunks this build generated."""

    def __init__(self, plans, table: Dict[str, object], make_top,
                 slot_map: Dict[_Key, int], fresh: set) -> None:
        self.plans = plans
        self.table = table
        self.make_top = make_top
        self.slot_map = slot_map
        self.fresh = fresh

    @property
    def sources(self) -> List[str]:
        """The source texts of the linked chunks, children first, then of
        the top entry (for debugging)."""
        return [plan.chunk.source for plan in self.plans] + [
            self.plans[-1].chunk.top[1]]

    def scalar_instance(self) -> "ScalarKernel":
        """A fresh instance, its children instantiated through this
        kernel's link table in one pass, its reused runs of segments
        fused (:meth:`_fused`)."""
        segments: list = []
        ticks: list = []
        resets: list = []
        slots = self.table[self.plans[-1].name](segments, ticks, resets,
                                                self.table)
        run, reset = self.make_top(self._fused(segments, slots),
                                   tuple(ticks), tuple(resets), slots)
        return ScalarKernel(run, reset, slots, self.slot_map)

    def _fused(self, segments: list, top: list) -> tuple:
        """``segments`` with every maximal run of two or more segments
        fused (:func:`_fuse_run`), cut at each segment of a chunk this
        build generated (:attr:`fresh`) and at each with free variables;
        ``top`` is the top's slot list."""
        codes = list(map(_CODE, segments))
        fresh = self.fresh
        cuts = [index for index, (code, segment)
                in enumerate(zip(codes, segments))
                if id(code) in fresh or segment.__closure__ is not None]
        cuts.append(len(segments))
        out: list = []
        start = 0
        for cut in cuts:
            if cut - start > 1:
                out += _fuse_run(segments[start:cut], codes[start:cut],
                                 self.plans, top)
            else:
                out += segments[start:cut]
            out += segments[cut:cut + 1]
            start = cut + 1
        return tuple(out)


def _fuse_run(run: list, codes: list, plans, top: list) -> list:
    """``run``, whose segments' code objects are ``codes``, as its pieces
    bound to this instance's slot lists (``top`` is the top's).  The
    pieces are the ones :data:`_RUNS` keeps for the run's code objects,
    aliasing and top segments, or, the first time those are seen,
    compiled from the bodies the chunks of ``plans`` keep: once per
    distinct slice of code objects, aliasing and top segments (a chain's
    links have equal segments)."""
    values = list(chain.from_iterable(map(_DEFAULTS, run)))
    ids = list(map(id, values))
    last = dict(zip(ids, range(len(ids))))
    # Each default as the position of the last one holding the same
    # object: how the run's defaults alias, and where the top's list is.
    labels = tuple(map(last.__getitem__, ids))
    mark = last.get(id(top))
    starts = list(accumulate(map(len, map(_DEFAULTS, run)), initial=0))
    slices = _slices(len(run))
    key = (tuple(map(id, codes)), labels, mark)
    entry = _RUNS.get(key)
    if entry is None:
        bodies: Dict[CodeType, tuple] = {}
        for plan in plans:
            bodies.update(plan.chunk.bodies)
        compiled: Dict[tuple, CodeType] = {}
        pieces = []
        for start, stop in slices:
            piece = (tuple(codes[start:stop]),) + _renumbered(
                labels[starts[start]:starts[stop]], mark)
            code = compiled.get(piece)
            if code is None:
                code = compiled[piece] = _compile_piece(*piece, bodies)
            pieces.append((start, stop, code))
        _RUNS.put(key, (tuple(codes), pieces))
        _PIECE_COUNTS["compiled"] += len(compiled)
        _PIECE_COUNTS["reused"] += len(pieces) - len(compiled)
    else:
        pieces = entry[1]
        _PIECE_COUNTS["reused"] += len(pieces)
    namespace = run[0].__globals__
    return [FunctionType(code, namespace, None, tuple(map(
        values.__getitem__,
        dict.fromkeys(labels[starts[start]:starts[stop]]))))
            for start, stop, code in pieces] + run[slices[-1][1]:]


class ScalarKernel:
    """A live scalar kernel: fresh state over one linked program, run
    through its columnar entry ``run_columns(cycles, columns)``."""

    __slots__ = ("run_columns", "reset", "_slots", "_slot_map")

    def __init__(self, run, reset, slots, slot_map) -> None:
        self.run_columns = run
        self.reset = reset
        self._slots = slots
        self._slot_map = slot_map

    def peek(self, key: _Key) -> Value:
        index = self._slot_map.get(key)
        return X if index is None else self._slots[index]


_CHUNK = attrgetter("chunk")
_MAKE = attrgetter("make")
_NAME = attrgetter("name")
_CODE = attrgetter("__code__")
_DEFAULTS = attrgetter("__defaults__")

#: Process-wide cache of compiled chunks, keyed by the plan key.
#: Bounded LRU: long fuzz/conformance campaigns stream thousands of
#: distinct components through the compiled tier.
_CACHE = DigestCache(_CACHE_BOUND)


def kernel_cache_limit() -> int:
    """The kernel cache's bound (chunks kept)."""
    return _CACHE.bound


def kernel_cache_stats() -> Dict[str, int]:
    """Process-wide chunk cache counters: ``hits``, ``misses``,
    ``evicted``, ``entries`` and ``limit``, plus the fused pieces
    compiled (``pieces_compiled``) and bound without a compile
    (``pieces_reused``)."""
    return dict(_CACHE.stats(), pieces_compiled=_PIECE_COUNTS["compiled"],
                pieces_reused=_PIECE_COUNTS["reused"])


def clear_kernel_cache() -> None:
    """Drop every cached chunk, every fused run's pieces and every cached
    engine plan, with the printed-component memo and the primitive
    prototypes behind the plans (tests and benchmarks that need a cold
    start)."""
    _CACHE.clear()
    _RUNS.clear()
    _PIECE_COUNTS.clear()
    _clear_plans()


def kernel_for(engine) -> Tuple[CompiledKernelProgram, bool]:
    """The generated kernel for ``engine``'s netlist: ``(program,
    cache_hit)``.

    Walks the plans of the reachable components children first — the
    engine resolved them at construction and builds no child engine for
    this.  A plan keeps the chunk it was built with; a plan without one
    fetches it from the chunk cache by its plan key, or generates and
    compiles it.  A chunk is linked once, when it is built, and looks its
    children up at instantiation in the program's link table (component
    name → linked factory), so a build after an edit generates and links
    only the chunks the edit changed.  The top's chunk supplies the top
    entry, generated on its first link as a top.  ``cache_hit`` is true
    when no chunk was generated.  Raises :class:`KernelUnavailable` when
    codegen cannot handle the netlist (the engine then runs the
    interpreter)."""
    plans = engine._reachable_plans()
    chunks = list(map(_CHUNK, plans))
    generated = missing = 0
    fresh: set = set()
    if None in chunks:
        for index, plan in enumerate(plans):
            if chunks[index] is not None:
                continue
            if plan.schedule is None:
                raise KernelUnavailable(
                    f"{plan.name}: {plan.fallback_reason}")
            missing += 1
            chunk = _CACHE.get(plan.key)
            if chunk is None:
                generated += 1
                chunk = _Chunk(plan)
                _CACHE.put(plan.key, chunk)
                fresh.update(map(id, chunk.bodies))
            plan.chunk = chunks[index] = chunk
    _CACHE.count_hits(len(plans) - missing)
    table = dict(zip(map(_NAME, plans), map(_MAKE, chunks)))
    # The walk ends at the top.
    top = chunks[-1]
    if top.top is None:
        top.top = _top_entry(plans[-1])
    program = CompiledKernelProgram(plans, table, top.top[0], top.slots,
                                    fresh)
    return program, not generated
