"""The core Filament reproduction: language, type system, semantics, lowering.

This package implements the paper's primary contribution.  The most useful
entry points are re-exported here so user code can write::

    from repro.core import ComponentBuilder, check_program, with_stdlib
"""

from .ast import (
    Component,
    Connect,
    ConstantPort,
    Constraint,
    EventBinding,
    Instantiate,
    Invoke,
    PortDef,
    PortRef,
    Program,
    Signature,
)
from .builder import ComponentBuilder, InvocationHandle, PortHandle, const
from .errors import (
    AvailabilityError,
    ConflictError,
    DelayError,
    FilamentError,
    OrderingError,
    ParseError,
    PhantomError,
    PipeliningError,
    TypeCheckError,
)
from .events import Delay, Event, EventComparisonError, Interval, evt
from .fingerprint import (
    component_fingerprint,
    component_self_fingerprint,
    fingerprint_snapshot,
    program_fingerprint,
    signature_fingerprint,
)
from .queries import QueryEngine
from .session import CompilationSession
from .stdlib import stdlib_program, with_stdlib
from .typecheck import check_component, check_program

__all__ = [
    "Component", "Connect", "ConstantPort", "Constraint", "EventBinding",
    "Instantiate", "Invoke", "PortDef", "PortRef", "Program", "Signature",
    "ComponentBuilder", "InvocationHandle", "PortHandle", "const",
    "AvailabilityError", "ConflictError", "DelayError", "FilamentError",
    "OrderingError", "ParseError", "PhantomError", "PipeliningError",
    "TypeCheckError",
    "Delay", "Event", "EventComparisonError", "Interval", "evt",
    "component_fingerprint", "component_self_fingerprint",
    "fingerprint_snapshot", "program_fingerprint", "signature_fingerprint",
    "QueryEngine",
    "CompilationSession",
    "stdlib_program", "with_stdlib",
    "check_component", "check_program",
]
