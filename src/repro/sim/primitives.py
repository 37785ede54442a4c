"""Behavioural models of the standard-library primitives.

The paper's standard library is 341 lines of Verilog; here every primitive is
a small Python class with the same two-phase semantics the simulator uses:

* :meth:`PrimitiveModel.combinational` — compute the outputs visible *during*
  the current cycle from the current input values and the registered state;
* :meth:`PrimitiveModel.tick` — advance the registered state at the clock
  edge using the input values that were present during the cycle.

Unknown (``X``) inputs poison arithmetic results; an unknown *control*
(mux select, register enable, FSM trigger) propagates the unknown instead of
silently picking a definite branch — a register whose enable is X may or may
not have latched, so its state becomes X.

The engine tiers built on top (scheduled, compiled, native) inline or call
these models; :attr:`PrimitiveModel.width_hint` bounds what a model can
write, which the native tier uses to size its multi-limb slots.

The model registry (:func:`create_primitive`, :func:`is_primitive`) is keyed
by the extern component names of :mod:`repro.core.stdlib`, plus the ``fsm``
shift-register primitive that Low Filament introduces (Section 5.1).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from .values import Value, X, is_x, mask

__all__ = [
    "PrimitiveModel",
    "create_primitive",
    "is_primitive",
    "primitive_names",
    "register_primitive",
]


class PrimitiveModel:
    """Base class for primitive behavioural models."""

    #: Names of input and output ports, filled in by subclasses.
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    #: Input ports whose *current-cycle* value can affect
    #: :meth:`combinational` outputs.  ``None`` means every input port; a
    #: registered primitive whose outputs depend only on stored state sets
    #: this to ``()`` so the scheduled engine can levelize across it.
    combinational_inputs: Optional[Tuple[str, ...]] = None

    def __init__(self, name: str, params: Sequence[int]) -> None:
        self.name = name
        self.params = tuple(params)

    # -- parameter helpers ---------------------------------------------------

    def param(self, index: int, default: int) -> int:
        if index < len(self.params):
            return self.params[index]
        return default

    @property
    def width(self) -> int:
        return self.param(0, 32)

    # -- simulation interface -------------------------------------------------

    def reset(self) -> None:
        """Return registered state to its power-on value."""

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        """Outputs visible during the current cycle."""
        raise NotImplementedError

    def tick(self, inputs: Dict[str, Value]) -> None:
        """Advance registered state at the clock edge (no-op for purely
        combinational primitives)."""

    @property
    def width_hint(self) -> int:
        """The widest value any port of this primitive can carry (the
        native tier sizes its slots from it)."""
        return self.width

    # -- cost-model hooks ------------------------------------------------------

    def is_sequential(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# Combinational primitives
# ---------------------------------------------------------------------------


class _Combinational(PrimitiveModel):
    """A combinational primitive defined by a Python function over ints."""

    def __init__(self, name: str, params: Sequence[int],
                 operation: Callable[..., int],
                 inputs: Tuple[str, ...], output: str = "out",
                 output_width: Optional[int] = None) -> None:
        super().__init__(name, params)
        self.inputs = inputs
        self.outputs = (output,)
        self._operation = operation
        self._output_width = output_width

    @property
    def width_hint(self) -> int:
        if self._output_width is not None:
            return max(self.width, self._output_width)
        return self.width

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        values = [inputs.get(port, X) for port in self.inputs]
        if any(is_x(v) for v in values):
            return {self.outputs[0]: X}
        width = self._output_width if self._output_width is not None else self.width
        return {self.outputs[0]: mask(self._operation(*values), width)}


def _make_binary(name: str, operation: Callable[[int, int], int],
                 output_width: Optional[int] = None):
    def factory(params: Sequence[int]) -> PrimitiveModel:
        return _Combinational(name, params, operation, ("left", "right"),
                              output_width=output_width)
    return factory


class _MuxModel(PrimitiveModel):
    """``out = sel ? in1 : in0``; a defined select picks the corresponding
    input even if the other input is X (matching real multiplexers), and an
    X select yields X."""

    inputs = ("sel", "in1", "in0")
    outputs = ("out",)

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        sel = inputs.get("sel", X)
        if is_x(sel):
            return {"out": X}
        chosen = inputs.get("in1" if sel else "in0", X)
        return {"out": mask(chosen, self.width)}


class _SliceModel(PrimitiveModel):
    """``out = in[HI:LO]`` with params ``(W, HI, LO)``."""

    inputs = ("in",)
    outputs = ("out",)

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        value = inputs.get("in", X)
        hi = self.param(1, self.width - 1)
        lo = self.param(2, 0)
        if is_x(value):
            return {"out": X}
        return {"out": (value >> lo) & ((1 << (hi - lo + 1)) - 1)}


class _ConcatModel(PrimitiveModel):
    """``out = {hi, lo}`` with params ``(WH, WL)``; both halves are
    truncated to their declared widths."""

    inputs = ("hi", "lo")
    outputs = ("out",)

    @property
    def width_hint(self) -> int:
        return self.param(0, 32) + self.param(1, 32)

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        hi = inputs.get("hi", X)
        lo = inputs.get("lo", X)
        if is_x(hi) or is_x(lo):
            return {"out": X}
        low_width = self.param(1, 32)
        return {"out": (mask(hi, self.param(0, 32)) << low_width)
                       | mask(lo, low_width)}


class _ShiftModel(PrimitiveModel):
    """Shift by the constant parameter ``BY`` (params ``(W, BY)``)."""

    inputs = ("in",)
    outputs = ("out",)

    def __init__(self, name: str, params: Sequence[int], left: bool) -> None:
        super().__init__(name, params)
        self._left = left

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        value = inputs.get("in", X)
        if is_x(value):
            return {"out": X}
        by = self.param(1, 1)
        result = value << by if self._left else value >> by
        return {"out": mask(result, self.width)}


class _ConstModel(PrimitiveModel):
    """Constant driver with params ``(W, V)``."""

    inputs = ()
    outputs = ("out",)

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        return {"out": mask(self.param(1, 0), self.width)}

# ---------------------------------------------------------------------------
# Sequential primitives
# ---------------------------------------------------------------------------


class _PipelinedMultModel(PrimitiveModel):
    """A multiplier with ``latency`` internal register stages.  ``Mult``
    (latency 2, not pipelinable — the type system enforces the delay),
    ``FastMult`` (latency 2, II=1) and ``PipelinedMult`` (latency 3, II=1,
    the LogiCORE stand-in) all share this model."""

    inputs = ("go", "left", "right")
    outputs = ("out",)
    combinational_inputs = ()

    def __init__(self, name: str, params: Sequence[int], latency: int) -> None:
        super().__init__(name, params)
        self._latency = latency
        self._stages: List = [X] * latency

    def reset(self) -> None:
        self._stages = [X] * self._latency

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        return {"out": self._stages[-1]}

    def tick(self, inputs: Dict[str, Value]) -> None:
        left = inputs.get("left", X)
        right = inputs.get("right", X)
        if is_x(left) or is_x(right):
            product: Value = X
        else:
            product = mask(left * right, self.width)
        self._stages = [product] + self._stages[:-1]

    def is_sequential(self) -> bool:
        return True


class _RegModel(PrimitiveModel):
    """Enable-gated register: ``Reg`` and ``Register`` share this model.

    An X enable makes the state X — the register may or may not have
    latched, so pretending it definitely held its old value would hide
    exactly the undriven-enable bugs the harness is built to expose."""

    inputs = ("en", "in")
    outputs = ("out",)
    combinational_inputs = ()

    def __init__(self, name: str, params: Sequence[int]) -> None:
        super().__init__(name, params)
        self._state = X

    def reset(self) -> None:
        self._state = X

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        return {"out": self._state}

    def tick(self, inputs: Dict[str, Value]) -> None:
        enable = inputs.get("en", X)
        if is_x(enable):
            self._state = X
        elif enable != 0:
            self._state = mask(inputs.get("in", X), self.width)

    def is_sequential(self) -> bool:
        return True


class _DelayModel(PrimitiveModel):
    """Always-enabled single-cycle delay (Section 5.4).

    Unlike ``Reg`` (whose power-on value is X so the harness can catch reads
    of never-written state), ``Delay`` models an FPGA flop initialised to
    zero: streaming pipelines built from delays start from a well-defined
    all-zero history, which is also what the golden stream models assume for
    pixels before the start of the stream.
    """

    inputs = ("in",)
    outputs = ("out",)
    combinational_inputs = ()

    def __init__(self, name: str, params: Sequence[int]) -> None:
        super().__init__(name, params)
        self._state = 0

    def reset(self) -> None:
        self._state = 0

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        return {"out": self._state}

    def tick(self, inputs: Dict[str, Value]) -> None:
        self._state = mask(inputs.get("in", X), self.width)

    def is_sequential(self) -> bool:
        return True


class _PrevModel(PrimitiveModel):
    """The ``Prev`` stream primitive (Section 7.2): the *previous* stored
    value is readable in the same cycle as the new write.  Params are
    ``(W, SAFE)``; when SAFE is non-zero the initial value is 0 instead of X.
    ``ContPrev`` is the phantom-event variant without an enable."""

    outputs = ("prev",)
    combinational_inputs = ()

    def __init__(self, name: str, params: Sequence[int], has_enable: bool) -> None:
        super().__init__(name, params)
        self._has_enable = has_enable
        self.inputs = ("en", "in") if has_enable else ("in",)
        self._initial: Value = 0 if self.param(1, 1) else X
        self._state = self._initial

    def reset(self) -> None:
        self._initial = 0 if self.param(1, 1) else X
        self._state = self._initial

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        return {"prev": self._state}

    def tick(self, inputs: Dict[str, Value]) -> None:
        if not self._has_enable:
            self._state = mask(inputs.get("in", X), self.width)
            return
        enable = inputs.get("en", X)
        if is_x(enable):
            self._state = X
        elif enable != 0:
            self._state = mask(inputs.get("in", X), self.width)

    def is_sequential(self) -> bool:
        return True


class _DspMacModel(PrimitiveModel):
    """One DSP48-style stage of the Reticle cascade: registered
    ``pout = a * b + pin``."""

    inputs = ("ce", "a", "b", "pin")
    outputs = ("pout",)
    combinational_inputs = ()

    def __init__(self, name: str, params: Sequence[int]) -> None:
        super().__init__(name, params)
        self._state = X

    def reset(self) -> None:
        self._state = X

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        return {"pout": self._state}

    def tick(self, inputs: Dict[str, Value]) -> None:
        enable = inputs.get("ce", 1)
        if is_x(enable):
            self._state = X
            return
        if enable == 0:
            return
        a, b, pin = (inputs.get(p, X) for p in ("a", "b", "pin"))
        if is_x(a) or is_x(b):
            self._state = X
            return
        accumulate = 0 if is_x(pin) else pin
        self._state = mask(a * b + accumulate, self.width)

    def is_sequential(self) -> bool:
        return True


class FsmModel(PrimitiveModel):
    """The pipeline FSM of Low Filament (Section 5.1): a shift register with
    ``N`` taps.  ``_0`` mirrors the trigger combinationally; ``_i`` goes high
    ``i`` cycles after the trigger was high.  An X trigger is an *unknown*
    pipeline start: it shifts X through the taps rather than pretending the
    pipeline definitely did not start."""

    inputs = ("go",)
    combinational_inputs = ("go",)

    def __init__(self, name: str, params: Sequence[int]) -> None:
        super().__init__(name, params)
        self.states = max(self.param(0, 1), 1)
        self.outputs = tuple(f"_{i}" for i in range(self.states))
        self._shift: List = [0] * max(self.states - 1, 0)

    @property
    def width_hint(self) -> int:
        return 1

    def reset(self) -> None:
        self._shift = [0] * max(self.states - 1, 0)

    def _trigger(self, inputs: Dict[str, Value]) -> Value:
        go = inputs.get("go", 0)
        if is_x(go):
            return X
        return 1 if go != 0 else 0

    def combinational(self, inputs: Dict[str, Value]) -> Dict[str, Value]:
        values: Dict[str, Value] = {"_0": self._trigger(inputs)}
        for index, stored in enumerate(self._shift, start=1):
            values[f"_{index}"] = stored
        return values

    def tick(self, inputs: Dict[str, Value]) -> None:
        trigger = self._trigger(inputs)
        self._shift = [trigger] + self._shift[:-1] if self._shift else []

    def is_sequential(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_FACTORIES: Dict[str, Callable[[Sequence[int]], PrimitiveModel]] = {
    "Add": _make_binary("Add", lambda a, b: a + b),
    "FlexAdd": _make_binary("FlexAdd", lambda a, b: a + b),
    "Sub": _make_binary("Sub", lambda a, b: a - b),
    "And": _make_binary("And", lambda a, b: a & b),
    "Or": _make_binary("Or", lambda a, b: a | b),
    "Xor": _make_binary("Xor", lambda a, b: a ^ b),
    "MultComb": _make_binary("MultComb", lambda a, b: a * b),
    "Eq": _make_binary("Eq", lambda a, b: int(a == b), output_width=1),
    "Neq": _make_binary("Neq", lambda a, b: int(a != b), output_width=1),
    "Lt": _make_binary("Lt", lambda a, b: int(a < b), output_width=1),
    "Gt": _make_binary("Gt", lambda a, b: int(a > b), output_width=1),
    "Le": _make_binary("Le", lambda a, b: int(a <= b), output_width=1),
    "Ge": _make_binary("Ge", lambda a, b: int(a >= b), output_width=1),
    "Not": lambda params: _Combinational("Not", params, lambda a: ~a, ("in",)),
    "Mux": lambda params: _MuxModel("Mux", params),
    "Slice": lambda params: _SliceModel("Slice", params),
    "Concat": lambda params: _ConcatModel("Concat", params),
    "ShiftLeft": lambda params: _ShiftModel("ShiftLeft", params, left=True),
    "ShiftRight": lambda params: _ShiftModel("ShiftRight", params, left=False),
    "Const": lambda params: _ConstModel("Const", params),
    "Mult": lambda params: _PipelinedMultModel("Mult", params, latency=2),
    "FastMult": lambda params: _PipelinedMultModel("FastMult", params, latency=2),
    "PipelinedMult": lambda params: _PipelinedMultModel("PipelinedMult", params, latency=3),
    "Reg": lambda params: _RegModel("Reg", params),
    "Register": lambda params: _RegModel("Register", params),
    "Delay": lambda params: _DelayModel("Delay", params),
    "Prev": lambda params: _PrevModel("Prev", params, has_enable=True),
    "ContPrev": lambda params: _PrevModel("ContPrev", params, has_enable=False),
    "DspMac": lambda params: _DspMacModel("DspMac", params),
    "fsm": lambda params: FsmModel("fsm", params),
}


def register_primitive(name: str,
                       factory: Callable[[Sequence[int]], PrimitiveModel]) -> None:
    """Register an additional primitive model (used by the generator
    substrates to provide bespoke black boxes)."""
    _FACTORIES[name] = factory


def is_primitive(name: str) -> bool:
    return name in _FACTORIES


def primitive_names() -> Tuple[str, ...]:
    return tuple(sorted(_FACTORIES))


def create_primitive(name: str, params: Sequence[int] = ()) -> PrimitiveModel:
    """Instantiate the behavioural model of primitive ``name``."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise SimulationError(f"no behavioural model for primitive {name!r}") from None
    return factory(params)
