"""Diagnostics for the Filament reproduction.

The paper puts a lot of emphasis on the quality of the errors Filament
reports (Section 2.3 shows an availability error rendered with a small
timeline).  This module defines the exception hierarchy raised by the parser,
the type checker, and the lowering passes, plus helpers that render the same
kind of timeline visualisation in plain ASCII so error messages in tests and
examples read like the paper's.
"""

from __future__ import annotations

from typing import Optional

from .events import Interval

__all__ = [
    "FilamentError",
    "ParseError",
    "TypeCheckError",
    "AvailabilityError",
    "ConflictError",
    "DelayError",
    "PipeliningError",
    "OrderingError",
    "PhantomError",
    "LoweringError",
    "SimulationError",
    "DriverConflictError",
    "render_interval_clash",
]


class FilamentError(Exception):
    """Base class for every error raised by the reproduction."""


class ParseError(FilamentError):
    """A syntax error in Filament surface text.

    Carries the 1-based ``line`` and ``column`` of the offending token when
    they are known, so tests can assert on error positions.
    """

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None) -> None:
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class TypeCheckError(FilamentError):
    """Base class for all rejections by the type checker."""


class AvailabilityError(TypeCheckError):
    """A read uses a value outside its availability interval.

    This is the paper's headline error (Section 2.3): "Available for
    [G+2, G+3) but required during [G, G+1)".
    """

    def __init__(self, port: str, available: Interval, required: Interval,
                 context: str = "") -> None:
        message = (
            f"{port}: available for {available} but required during {required}"
        )
        if context:
            message = f"{context}: {message}"
        diagram = render_interval_clash(str(port), available, required)
        if diagram:
            message = f"{message}\n{diagram}"
        super().__init__(message)
        self.port = port
        self.available = available
        self.required = required


class ConflictError(TypeCheckError):
    """Two uses of the same physical resource overlap in time.

    Raised both for conflicting invocations of one instance within a single
    execution and for conflicting writes to a port (Definition 6.1's
    "writes do not conflict").
    """

    def __init__(self, resource: str, first: Interval, second: Interval,
                 context: str = "") -> None:
        message = (
            f"conflicting uses of {resource}: {first} overlaps {second}"
        )
        if context:
            message = f"{context}: {message}"
        super().__init__(message)
        self.resource = resource
        self.first = first
        self.second = second


class DelayError(TypeCheckError):
    """An event's delay is shorter than an interval that mentions it
    (Section 4.1, delay well-formedness)."""

    def __init__(self, event: str, delay: int, interval: Interval,
                 port: str = "") -> None:
        subject = f"port {port} " if port else ""
        super().__init__(
            f"delay of event {event} is {delay} but {subject}interval "
            f"{interval} is {interval.length()} cycles long; the delay must "
            f"be at least as long as every availability interval using the event"
        )
        self.event = event
        self.delay = delay
        self.interval = interval


class PipeliningError(TypeCheckError):
    """A safe-pipelining constraint is violated (Section 4.4).

    Covers both "triggering subcomponents" (an event with delay *d* may not
    invoke a subcomponent whose event has a longer delay) and "reusing
    instances" (all invocations of a shared instance must finish within the
    delay window).
    """


class OrderingError(TypeCheckError):
    """An ordering constraint between events (``where L > G``) is violated or
    cannot be proven from the constraints in scope."""


class PhantomError(TypeCheckError):
    """A phantom event is used in a way Definition 5.1 forbids: to share an
    instance, or to invoke a subcomponent that requires an interface port."""


class LoweringError(FilamentError):
    """Internal invariant violated while compiling to Low Filament or Calyx.

    Lowering only runs on well-typed programs, so these errors indicate a bug
    in the compiler rather than the user's design.
    """


class SimulationError(FilamentError):
    """The cycle-accurate simulator detected an inconsistent netlist, e.g. a
    combinational cycle or conflicting drivers on one wire."""


class DriverConflictError(SimulationError):
    """Simultaneously active drivers put different values on one port.

    Every engine tier raises this with the same message; ``component``,
    ``port`` and ``cycle`` locate the conflict, so a lane batch can report
    the earliest one across its streams.  ``detail`` ends the message: the
    drivers and values for a scalar run, ``" (lane N)"`` for a lane batch.
    """

    def __init__(self, component: str, port: object, cycle: int,
                 detail: str) -> None:
        super().__init__(f"{component}: conflicting drivers for {port} in "
                         f"cycle {cycle}{detail}")
        self.component = component
        self.port = port
        self.cycle = cycle


def render_interval_clash(label: str, available: Interval,
                          required: Interval) -> str:
    """Render the paper's little timeline diagram for an availability error.

    Produces something like::

        G     G+1   G+2   G+3
              |-- required --|
                    |-- m0.out --|

    Only same-base intervals are rendered; multi-event intervals return an
    empty string because there is no single axis to draw them on.
    """
    if not (available.same_base() and required.same_base()
            and available.base == required.base):
        return ""
    base = available.base
    lo = min(available.start.offset, required.start.offset)
    hi = max(available.end.offset, required.end.offset)
    if hi - lo > 16:
        return ""
    cell = 7
    header = "".join(
        f"{base}+{i}".ljust(cell) if i else base.ljust(cell)
        for i in range(lo, hi + 1)
    )

    def bar(interval: Interval, name: str) -> str:
        pad = " " * ((interval.start.offset - lo) * cell)
        width = max(interval.length() * cell - 1, len(name) + 2)
        return pad + "|" + name.center(width - 1, "-")

    return "\n".join([header, bar(required, "required"), bar(available, label)])
