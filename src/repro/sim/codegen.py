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
  as int/mask expressions;
* driver groups fold to direct moves or small if/elif chains for the
  overwhelmingly common single-assignment case, with a slot-based resolver
  (still dict-free) for genuinely multi-driven ports;
* the sequential update (``tick``) is a second straight-line block, with
  register state aliased onto the output slots it feeds;
* hierarchy is compiled compositionally: each child component becomes its
  own settle/tick closure pair called from the parent's straight line.

Code is generated per component, as one **chunk** per engine plan
(:class:`~repro.sim.engine._ComponentPlan`).  A chunk defines
``link(INIT, C, kids)``, which binds the component's init table ``INIT``
and its multi-driver group plans ``C`` and returns the component's factory
— ``make_top`` for the fresh top.  The factory reaches each child through
the link table as ``kids[cell]()``, so a chunk names nothing positional and
its text depends only on its plan and on whether it is the fresh top.
:func:`kernel_for` links one engine's chunks children first into one
scalar kernel, which rides ``run_batch``/``step``; ``run_lanes`` without the
native lane entry runs it once per stream.

Primitives registered by generator substrates — black boxes without an
inlinable template — call back into their interpreter model from inside the
generated kernel, so semantics never fork; netlists that the scheduler
itself rejected (``fallback_reason`` set anywhere in the hierarchy) never
reach codegen and run on the interpreter unchanged.

Compiled chunks are cached process-wide in memory (a
:class:`~repro.core.store.DigestCache`), keyed by ``(plan key, fresh)``.
A plan key covers the printed component, its primitives' factories and its
children's interfaces but never their bodies, so rebuilding the same
design — across sessions, harnesses and conformance runs — hits every
chunk, and an edit to one component's body regenerates that component's
chunk alone; :class:`~repro.core.session.CompilationSession` reports the
hits next to its other stage timings.  :func:`netlist_digest`, the whole
netlist's digest, keys the native tier's ``.so`` files.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional, Tuple

from ..core.errors import DriverConflictError
from ..core.store import DigestCache
from .engine import _CACHE_BOUND, _GROUP, _PLANS, _PRIM
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

#: Sentinel returned by the slot-based group resolver when no driver is
#: active or possibly active (mirrors the engine's ``_UNDRIVEN``).
_UNDRIVEN = object()

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
# but reads slots instead of a keyed dict.


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
    if not actives and not maybe_values:
        return _UNDRIVEN
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


class _ComponentCompiler:
    """Compiles one component plan to a kernel chunk over the component's
    own flat slot map (the native tier reuses the slot analysis)."""

    def __init__(self, plan, fresh: bool) -> None:
        self.plan = plan
        self.fresh = fresh
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
        for name in plan.input_names:
            self._slot((None, name))
        for name in plan.output_names:
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
        # schedule position, where the interpreter sees X (fresh) or the
        # previous cycle's value (preserving) rather than the constant.
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
        constant at that point), and in a fresh component the kernel must
        clear them to X at the start of every settle (the interpreter's
        per-cycle dict would read X; slots persist)."""
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

    def _blackbox_hazards(self) -> Dict[str, List[_Key]]:
        """The early black-box reads a *fresh* component clears to X at
        settle start (a preserving component's stale slot IS the
        interpreter semantics, so nothing is cleared there)."""
        return self._early_reads if self.fresh else {}

    # -- chunk emission --------------------------------------------------------

    def emit_chunk(self) -> str:
        """The chunk source: ``link(INIT, C, kids)`` binds the group plans
        from ``C`` and returns this component's factory, or ``make_top``
        for the fresh top."""
        body = _Lines()
        body.indent = 1
        self._emit_make(body)
        if self.fresh:
            self._emit_make_top(body)
            body.emit("return make_top")
        else:
            body.emit("return make")
        out = _Lines()
        out.emit(f"def link(INIT, C, kids):  # component {self.name!r}"
                 f"{' (top, fresh)' if self.fresh else ''}")
        out.indent += 1
        for index, name in enumerate(self.constants):
            out.emit(f"{name} = C[{index}]")
        out.lines.extend(body.lines)
        return out.text()

    def _emit_make(self, out: _Lines) -> None:
        plan = self.plan
        out.emit("def make():")
        out.indent += 1
        out.emit("s = list(INIT)")
        out.emit("n = 0")
        for (cell, primitive, params), node in zip(plan.prims,
                                                   plan.prim_nodes):
            if not _is_stdlib(node.model):
                out.emit(f"m_{self._ident(cell)} = "
                         f"_mk({primitive!r}, {params!r})")
        for node in plan.child_nodes:
            ident = self._ident(node.cell)
            out.emit(f"st_{ident}, tk_{ident}, rs_{ident}, _ = "
                     f"kids[{node.cell!r}]()")
        self._emit_scalar_settle(out)
        self._emit_scalar_tick(out)
        self._emit_scalar_reset(out)
        out.emit("return settle, tick, reset, s")
        out.indent -= 1
        out.emit()

    def _emit_make_top(self, out: _Lines) -> None:
        plan = self.plan
        out.emit("def make_top():")
        out.indent += 1
        out.emit("settle, tick, reset, s = make()")
        out.emit("def cycle(inputs):")
        out.indent += 1
        out.emit("g = inputs.get")
        args = ", ".join(f"g({name!r}, X)" for name in plan.input_names)
        out.emit(f"o = settle({args})")
        pairs = ", ".join(f"{name!r}: o[{index}]"
                          for index, name in enumerate(plan.output_names))
        out.emit(f"r = {{{pairs}}}")
        out.emit("tick()")
        out.emit("return r")
        out.indent -= 1
        out.emit("return cycle, reset, s")
        out.indent -= 1
        out.emit()

    @staticmethod
    def _ident(cell: str) -> str:
        return "".join(ch if ch.isalnum() else "_" for ch in cell)

    def _emit_scalar_settle(self, out: _Lines) -> None:
        inputs = self.plan.input_names
        args = ", ".join(f"a{i}" for i in range(len(inputs)))
        out.emit(f"def settle({args}):")
        out.indent += 1
        for i, name in enumerate(inputs):
            out.emit(f"s[{self.slots[(None, name)]}] = a{i}"
                     f"  # input {name}")
        hazards = self._blackbox_hazards()
        for cell, keys in hazards.items():
            for key in keys:
                out.emit(f"s[{self.slots[key]}] = X"
                         f"  # {cell} reads {key} before its driver runs")
        temp = [0]

        def fresh_temp(prefix: str = "t") -> str:
            temp[0] += 1
            return f"{prefix}{temp[0]}"

        for kind, payload in self.schedule:
            if kind == _PRIM:
                self._emit_scalar_prim(out, payload, fresh_temp)
            elif kind == _GROUP:
                self._emit_scalar_group(out, payload, fresh_temp)
            else:
                self._emit_scalar_child(out, payload)
        outputs = [self.slots[(None, name)]
                   for name in self.plan.output_names]
        if outputs:
            out.emit("return ("
                     + ", ".join(f"s[{i}]" for i in outputs) + ",)")
        else:
            out.emit("return ()")
        out.indent -= 1
        out.emit()

    def _emit_scalar_prim(self, out: _Lines, node, fresh_temp) -> None:
        model = node.model
        cell = node.cell
        if not _is_stdlib(model):
            items = ", ".join(f"{port!r}: s[{self.slots[key]}]"
                              for port, key in node.in_items)
            result = fresh_temp("bo")
            out.emit(f"{result} = m_{self._ident(cell)}"
                     f".combinational({{{items}}})  # black box {cell}")
            for port, key in node.out_keys.items():
                out.emit(f"if {port!r} in {result}: "
                         f"s[{self.slots[key]}] = {result}[{port!r}]")
            return
        name = model.name
        width = model.width
        mask = (1 << width) - 1
        sl = self.slots

        def rd(port: str) -> str:
            return f"s[{sl[(cell, port)]}]"

        if name in _SCALAR_BINARY:
            o = sl[(cell, "out")]
            a, b = fresh_temp(), fresh_temp()
            out.emit(f"{a} = {rd('left')}; {b} = {rd('right')}"
                     f"  # {cell} = {name}[{width}]")
            expr = _SCALAR_BINARY[name].format(a=a, b=b)
            out_width = getattr(model, "_output_width", None)
            if out_width is not None:
                mask = (1 << out_width) - 1
            out.emit(f"s[{o}] = X if {a} is X or {b} is X "
                     f"else {expr} & {hex(mask)}")
        elif name == "Not":
            o = sl[(cell, "out")]
            a = fresh_temp()
            out.emit(f"{a} = {rd('in')}  # {cell} = Not[{width}]")
            out.emit(f"s[{o}] = X if {a} is X else (~{a}) & {hex(mask)}")
        elif name == "Mux":
            o = sl[(cell, "out")]
            c, v = fresh_temp(), fresh_temp()
            out.emit(f"{c} = {rd('sel')}  # {cell} = Mux[{width}]")
            out.emit(f"if {c} is X:")
            out.emit(f"    s[{o}] = X")
            out.emit("else:")
            out.emit(f"    {v} = {rd('in1')} if {c} else {rd('in0')}")
            out.emit(f"    s[{o}] = {v} if {v} is X else {v} & {hex(mask)}")
        elif name == "Slice":
            o = sl[(cell, "out")]
            hi = model.param(1, width - 1)
            lo = model.param(2, 0)
            slice_mask = (1 << (hi - lo + 1)) - 1
            v = fresh_temp()
            out.emit(f"{v} = {rd('in')}  # {cell} = Slice[{width},{hi},{lo}]")
            out.emit(f"s[{o}] = X if {v} is X "
                     f"else ({v} >> {lo}) & {hex(slice_mask)}")
        elif name == "Concat":
            o = sl[(cell, "out")]
            wh = model.param(0, 32)
            wl = model.param(1, 32)
            h, l = fresh_temp(), fresh_temp()
            out.emit(f"{h} = {rd('hi')}; {l} = {rd('lo')}"
                     f"  # {cell} = Concat[{wh},{wl}]")
            out.emit(f"s[{o}] = X if {h} is X or {l} is X else "
                     f"((({h} & {hex((1 << wh) - 1)}) << {wl}) | "
                     f"({l} & {hex((1 << wl) - 1)}))")
        elif name in ("ShiftLeft", "ShiftRight"):
            o = sl[(cell, "out")]
            by = model.param(1, 1)
            v = fresh_temp()
            op = "<<" if name == "ShiftLeft" else ">>"
            out.emit(f"{v} = {rd('in')}  # {cell} = {name}[{width},{by}]")
            out.emit(f"s[{o}] = X if {v} is X "
                     f"else ({v} {op} {by}) & {hex(mask)}")
        elif name == "Const":
            if not self._const_preloaded(cell):
                # An early black-box read precedes this node, so the value
                # must appear at the node's schedule position, not at init.
                value = model.param(1, 0) & ((1 << width) - 1)
                out.emit(f"s[{sl[(cell, 'out')]}] = {value}"
                         f"  # {cell} = Const[{width}] (early reader)")
        elif name == "fsm":
            o0 = sl[(cell, "_0")]
            g = fresh_temp()
            out.emit(f"{g} = {rd('go')}  # {cell} = fsm[{model.states}]")
            out.emit(f"s[{o0}] = X if {g} is X else (1 if {g} != 0 else 0)")
            for state, tap in enumerate(self.extra_state[cell], start=1):
                out.emit(f"s[{sl[(cell, f'_{state}')]}] = s[{tap}]")
        elif name in ("Reg", "Register", "Delay", "Prev", "ContPrev",
                      "DspMac") or name in _MULT_LATENCY:
            port = ("prev" if name in ("Prev", "ContPrev")
                    else "pout" if name == "DspMac" else "out")
            state = self.extra_state[cell][-1]
            out.emit(f"s[{sl[(cell, port)]}] = s[{state}]"
                     f"  # {cell} = {name}[{width}] registered output")
        else:  # pragma: no cover - registry names are closed above
            raise KernelUnavailable(f"no scalar template for {name}")

    def _emit_scalar_child(self, out: _Lines, node) -> None:
        ident = self._ident(node.cell)
        args = ", ".join(f"s[{self.slots[key]}]" for _, key in node.in_items)
        targets = ", ".join(f"s[{self.slots[key]}]"
                            for _, key in node.out_items)
        if not node.out_items:
            out.emit(f"st_{ident}({args})  # child {node.cell}")
        elif len(node.out_items) == 1:
            out.emit(f"{targets}, = st_{ident}({args})  # child {node.cell}")
        else:
            out.emit(f"{targets} = st_{ident}({args})  # child {node.cell}")

    def _scalar_src(self, assign) -> str:
        if assign.src_key is None:
            return repr(assign.src_const)
        return f"s[{self.slots[assign.src_key]}]"

    def _emit_scalar_group(self, out: _Lines, group, fresh_temp) -> None:
        d = self.slots[group.dst_key]
        if self._preloaded(group):
            return
        if len(group.assigns) == 1:
            assign = group.assigns[0]
            src = self._scalar_src(assign)
            if assign.guard_keys is None:
                out.emit(f"s[{d}] = {src}  # {group.dst} = {assign.assignment.src}")
                return
            guards = [fresh_temp("g") for _ in assign.guard_keys]
            reads = "; ".join(
                f"{g} = s[{self.slots[key]}]"
                for g, key in zip(guards, assign.guard_keys))
            out.emit(f"{reads}  # {group.dst} = guarded")
            active = " or ".join(f"({g} is not X and {g} != 0)"
                                 for g in guards)
            unknown = " or ".join(f"{g} is X" for g in guards)
            out.emit(f"if {active}:")
            out.emit(f"    s[{d}] = {src}")
            if self.fresh:
                out.emit("else:")
                out.emit(f"    s[{d}] = X")
            else:
                out.emit(f"elif {unknown}:")
                out.emit(f"    s[{d}] = X")
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
        v = fresh_temp("v")
        out.emit(f"{v} = _rg(s, {plan_name}, n)  # {group.dst}: "
                 f"{len(group.assigns)} drivers")
        if self.fresh:
            out.emit(f"s[{d}] = X if {v} is _U else {v}")
        else:
            out.emit(f"if {v} is not _U:")
            out.emit(f"    s[{d}] = {v}")

    def _emit_scalar_tick(self, out: _Lines) -> None:
        out.emit("def tick():")
        out.indent += 1
        out.emit("nonlocal n")
        temp = [0]

        def fresh_temp(prefix: str = "t") -> str:
            temp[0] += 1
            return f"{prefix}{temp[0]}"

        sl = self.slots
        for node in self.plan.prim_nodes:
            model = node.model
            cell = node.cell
            if not _is_stdlib(model):
                items = ", ".join(f"{port!r}: s[{sl[key]}]"
                                  for port, key in node.in_items)
                out.emit(f"m_{self._ident(cell)}.tick({{{items}}})"
                         f"  # black box {cell}")
                continue
            name = model.name
            width = model.width
            mask = (1 << width) - 1

            def rd(port: str) -> str:
                return f"s[{sl[(cell, port)]}]"

            if name in ("Reg", "Register", "Prev"):
                d = self.extra_state[cell][0]
                e, v = fresh_temp("e"), fresh_temp("v")
                out.emit(f"{e} = {rd('en')}  # {cell} = {name}[{width}]")
                out.emit(f"if {e} is X:")
                out.emit(f"    s[{d}] = X")
                out.emit(f"elif {e} != 0:")
                out.emit(f"    {v} = {rd('in')}")
                out.emit(f"    s[{d}] = {v} if {v} is X else {v} & {hex(mask)}")
            elif name in ("Delay", "ContPrev"):
                d = self.extra_state[cell][0]
                v = fresh_temp("v")
                out.emit(f"{v} = {rd('in')}  # {cell} = {name}[{width}]")
                out.emit(f"s[{d}] = {v} if {v} is X else {v} & {hex(mask)}")
            elif name in _MULT_LATENCY:
                stages = self.extra_state[cell]  # newest .. oldest
                l, r, p = fresh_temp("l"), fresh_temp("r"), fresh_temp("p")
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
                e = fresh_temp("e")
                a, b, acc = fresh_temp(), fresh_temp(), fresh_temp("p")
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
                    out.emit(f"s[{taps[0]}] = s[{sl[(cell, '_0')]}]")
        for node in self.plan.child_nodes:
            out.emit(f"tk_{self._ident(node.cell)}()  # child {node.cell}")
        out.emit("n += 1")
        out.indent -= 1
        out.emit()

    def _emit_scalar_reset(self, out: _Lines) -> None:
        out.emit("def reset():")
        out.indent += 1
        out.emit("nonlocal n")
        out.emit("n = 0")
        out.emit("s[:] = INIT")
        for node in self.plan.prim_nodes:
            if not _is_stdlib(node.model):
                out.emit(f"m_{self._ident(node.cell)}.reset()")
        for node in self.plan.child_nodes:
            out.emit(f"rs_{self._ident(node.cell)}()")
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


def _reachable_engines(engine) -> List:
    """Engines of the hierarchy, one per distinct component name, children
    before parents (so every child's factory is linked before its
    parent's)."""
    order: List = []
    seen: Dict[str, bool] = {}

    def walk(node) -> None:
        if node.component.name in seen:
            return
        seen[node.component.name] = True
        for child in node._children.values():
            walk(child)
        order.append(node)

    walk(engine)
    return order


def netlist_digest(engine) -> str:
    """A stable digest of the netlist reachable from ``engine`` — the key
    of the native tier's ``.so`` files.

    Beyond the printed structure (each plan's printed text), the digest
    covers each primitive cell's *model class identity*: the
    inline-vs-black-box decision (and the inlined semantics) depend on
    which class the registry produced, so a ``register_primitive``
    override of a stdlib name must miss rather than reuse a kernel built
    for the old model."""
    parts = [engine.component.name]
    for node in _reachable_engines(engine):
        plan = node._plan
        parts.append(plan.text)
        for prim in plan.prim_nodes:
            model_type = type(prim.model)
            parts.append(f"{prim.cell}:{model_type.__module__}."
                         f"{model_type.__qualname__}")
    return hashlib.sha256("\n\n".join(parts).encode()).hexdigest()


class _Chunk:
    """One component's compiled chunk: its ``link`` function, the init
    table and group plans it is linked with, its slot map and its source
    text."""

    __slots__ = ("link", "init", "consts", "slots", "source")

    def __init__(self, plan, fresh: bool) -> None:
        compiler = _ComponentCompiler(plan, fresh)
        self.source = compiler.emit_chunk()
        namespace = {"X": X, "_U": _UNDRIVEN, "_rg": _resolve_slots,
                     "_mk": create_primitive}
        try:
            exec(compile(self.source, f"<kernel {plan.name}>", "exec"),
                 namespace)
        except SyntaxError as error:  # pragma: no cover - generator bug guard
            raise KernelUnavailable(f"generated source failed to compile: "
                                    f"{error}") from error
        self.link = namespace["link"]
        self.init = compiler.scalar_init()
        self.consts = tuple(compiler.constants.values())
        self.slots = compiler.slots


class CompiledKernelProgram:
    """One engine's linked kernel: the top's ``make_top``, the top slot
    map and output names, and the linked chunks' source texts (children
    first, for debugging)."""

    def __init__(self, make_top, slot_map: Dict[_Key, int],
                 output_names: List[str], sources: List[str]) -> None:
        self.make_top = make_top
        self.slot_map = slot_map
        self.output_names = output_names
        self.sources = sources

    def scalar_instance(self) -> "ScalarKernel":
        cycle, reset, slots = self.make_top()
        return ScalarKernel(cycle, reset, slots, self.slot_map)


class ScalarKernel:
    """A live scalar kernel: fresh state over one linked program."""

    __slots__ = ("cycle", "reset", "_slots", "_slot_map")

    def __init__(self, cycle, reset, slots, slot_map) -> None:
        self.cycle = cycle
        self.reset = reset
        self._slots = slots
        self._slot_map = slot_map

    def peek(self, key: _Key) -> Value:
        index = self._slot_map.get(key)
        return X if index is None else self._slots[index]


#: Process-wide cache of compiled chunks, keyed by ``(plan key, fresh)``.
#: Bounded LRU: long fuzz/conformance campaigns stream thousands of
#: distinct components through the compiled tier.
_CACHE = DigestCache(_CACHE_BOUND)


def kernel_cache_limit() -> int:
    """The kernel cache's bound (chunks kept)."""
    return _CACHE.bound


def kernel_cache_stats() -> Dict[str, int]:
    """Process-wide chunk cache counters: ``hits``, ``misses``,
    ``evicted``, ``entries`` and ``limit``."""
    return _CACHE.stats()


def clear_kernel_cache() -> None:
    """Drop every cached chunk and every cached engine plan (tests and
    benchmarks that need a cold start)."""
    _CACHE.clear()
    _PLANS.clear()


def kernel_for(engine) -> Tuple[CompiledKernelProgram, bool, float]:
    """The generated kernel for ``engine``'s netlist: ``(program,
    cache_hit, build_seconds)``.

    Walks the reachable engines children first; each one's chunk is
    fetched from the chunk cache by ``(plan key, fresh)`` — only the top
    is fresh — or generated and compiled, then linked to its children's
    factories.  ``cache_hit`` is true when every chunk hit.  Raises
    :class:`KernelUnavailable` when codegen cannot handle the netlist (the
    engine then runs the interpreter)."""
    start = time.perf_counter()
    hit = True
    factories: Dict[str, object] = {}
    sources: List[str] = []
    for node in _reachable_engines(engine):
        plan = node._plan
        if plan.schedule is None:
            raise KernelUnavailable(f"{plan.name}: {plan.fallback_reason}")
        fresh = node is engine
        chunk = _CACHE.get((plan.key, fresh))
        if chunk is None:
            hit = False
            chunk = _Chunk(plan, fresh)
            _CACHE.put((plan.key, fresh), chunk)
        kids = {cell: factories[child.component.name]
                for cell, child in node._children.items()}
        factories[plan.name] = chunk.link(chunk.init, chunk.consts, kids)
        sources.append(chunk.source)
    # The walk ends at the top, so ``chunk`` and ``plan`` are the top's.
    program = CompiledKernelProgram(factories[engine.component.name],
                                    chunk.slots, list(plan.output_names),
                                    sources)
    return program, hit, time.perf_counter() - start
