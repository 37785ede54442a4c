"""Signal values for the cycle-accurate simulator.

Real wires always carry *some* voltage; what Filament reasons about is
whether the value is *semantically valid*.  The simulator models invalidity
explicitly with an ``X`` (unknown) value, mirroring 4-state RTL simulation:

* any arithmetic/logic operation with an ``X`` operand produces ``X``;
* an enable/guard/select that is ``X`` *propagates the unknown*: a mux with
  an X select yields X, a register with an X enable may or may not have
  latched so its state becomes X, and a guarded assignment whose guard is X
  drives X unless the value could not depend on the guard's outcome —
  treating an X control as "inactive" would silently route execution down a
  definite branch and mask exactly the interface bugs the harness exists to
  catch;
* the test harness drives ``X`` on every input outside its availability
  interval, so a design that samples a port in the wrong cycle produces an
  ``X`` (or wrong) output and the discrepancy is caught — this is exactly how
  the paper's cycle-accurate harness exposes the Aetherling interface bugs.
"""

from __future__ import annotations

from typing import Union

__all__ = ["X", "Value", "is_x", "mask", "to_bool", "format_value"]


class _Unknown:
    """Singleton unknown value (rendered as ``X``)."""

    _instance = None

    def __new__(cls) -> "_Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "X"

    def __bool__(self) -> bool:  # pragma: no cover - guarded by is_x checks
        raise TypeError("X has no truth value; use is_x()")


#: The unknown value.
X = _Unknown()

#: A signal value: a non-negative integer or :data:`X`.
Value = Union[int, _Unknown]


def is_x(value: Value) -> bool:
    """Whether ``value`` is the unknown value."""
    return value is X


def mask(value: Value, width: int) -> Value:
    """Truncate ``value`` to ``width`` bits (X stays X)."""
    if is_x(value):
        return X
    return value & ((1 << width) - 1)


def to_bool(value: Value) -> bool:
    """Whether a control signal is *definitely* active: non-X and non-zero.
    Callers that branch on a control must treat an X control separately
    (propagating X) rather than folding it into the inactive case."""
    return not is_x(value) and value != 0


def format_value(value: Value) -> str:
    """Render a value for waveforms and error messages."""
    return "X" if is_x(value) else str(value)
