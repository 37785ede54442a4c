"""Stable structural fingerprints for Filament components.

The incremental query layer (:mod:`repro.core.queries`) is content-addressed:
every compile artifact is keyed by *what the component is*, never by *which
Python object happens to hold it*.  This module computes those keys.

Fingerprints are built from the faithful surface-syntax printer
(:mod:`repro.core.printer`), which gives them the property the rest of the
system relies on: a fingerprint is **invariant under a print → re-parse
round trip** (the printer is a function of AST structure and
``parse(print(p))`` is structurally equal to ``p``), and it **changes under
any interface or body edit** (every port, event, delay, constraint, and
command appears in the printed text).

Two granularities are exposed:

* the **self fingerprint** covers one component's own definition — its
  signature (timeline type) plus its body;
* the **deep fingerprint** is a Merkle digest: the self fingerprint plus the
  deep fingerprints of every component it instantiates, transitively.  Two
  components with equal deep fingerprints compile to identical artifacts at
  every stage.  It feeds only :func:`program_fingerprint`, and through it a
  Filament frontend bundle's fingerprint; the query layer keys its memos
  by self and signature fingerprints.

The **signature fingerprint** covers only the printed signature.  It is the
early-cutoff lever: a client of a component depends only on its timeline
type (the paper's modularity claim), so a body-only edit leaves every
client's signature dependency untouched and the query layer skips
recompiling them.

Generator frontends (:mod:`repro.core.frontend`) enter the pipeline at the
Calyx stage, so they need content keys over Calyx IR rather than Filament
ASTs.  :func:`calyx_component_fingerprint` and :func:`calyx_fingerprint`
digest the IR's deterministic printer (``str(component)``), giving them the
same invariant the Filament digests get from the surface printer: stable
across regeneration, changed by any cell, wire, guard or port edit.  Extern
signatures imported by those frontends are digested with the existing
:func:`signature_fingerprint` (the printer-backed timeline-type digest).

Printing is the expensive part of every digest, so a caller that digests
the same components again and again keeps an **identity memo** per
component: the tuple of its parts (:func:`component_parts`,
:func:`calyx_component_parts`) next to the text or fingerprint printed from
them, reused while :func:`same_parts` holds.  Apart from a Filament
component object itself, every part is a string or a frozen dataclass over
tuples, so a part that is still the very same object still prints the same.
The memo holds strong references to its parts, so none can be freed and
its ``id`` taken by another object.  Editing a mutable list
(``Component.body``, a Calyx component's ports, cells or wires) or
reassigning an attribute replaces, adds or drops a part, and the component
is printed again.
"""

from __future__ import annotations

import hashlib
from operator import is_
from typing import Dict, Optional, Tuple, Union

from .ast import Component, Program, Signature
from .printer import format_component, format_signature

__all__ = [
    "fingerprint_text",
    "component_self_fingerprint",
    "signature_fingerprint",
    "component_fingerprint",
    "program_fingerprint",
    "fingerprint_snapshot",
    "calyx_component_fingerprint",
    "calyx_fingerprint",
    "component_parts",
    "calyx_component_parts",
    "same_parts",
]

#: Separates a Calyx component's part lists in :func:`calyx_component_parts`,
#: so a port moving from the inputs to the outputs changes the parts.
_LIST_END = object()


def fingerprint_text(*parts: str) -> str:
    """A stable hex digest of the given text parts (order-sensitive): the
    SHA-256 of every part followed by a NUL, the unambiguous boundary."""
    text = "\x00".join(parts) + "\x00" if parts else ""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def component_self_fingerprint(component: Component) -> str:
    """The digest of one component's own definition (interface + body),
    independent of anything it instantiates."""
    return fingerprint_text("component", format_component(component))


def signature_fingerprint(signature: Union[Component, Signature]) -> str:
    """The digest of a component's printed signature (its timeline type,
    including extern-ness, params, events, ports and constraints)."""
    if isinstance(signature, Component):
        signature = signature.signature
    return fingerprint_text("signature", format_signature(signature))


def component_fingerprint(name: str, program: Program,
                          _memo: Optional[Dict[str, str]] = None,
                          _stack: Optional[frozenset] = None) -> str:
    """The deep (Merkle) fingerprint of ``name`` in ``program``: its self
    fingerprint combined with the deep fingerprints of every component it
    instantiates, transitively.  Equal deep fingerprints mean every compile
    stage produces identical output for the two components."""
    memo = _memo if _memo is not None else {}
    if name in memo:
        return memo[name]
    stack = _stack or frozenset()
    if name in stack:
        # A recursive instantiation cycle cannot compile anyway; the marker
        # keeps the digest well-defined without infinite recursion.
        return fingerprint_text("cycle", name)
    component = program.get(name)
    parts = [component_self_fingerprint(component)]
    children = sorted({inst.component for inst in component.instantiations()})
    for child in children:
        parts.append(child)
        parts.append(component_fingerprint(child, program, memo,
                                           stack | {name}))
    fingerprint = fingerprint_text("deep", *parts)
    memo[name] = fingerprint
    return fingerprint


def program_fingerprint(program: Program,
                        entrypoint: Optional[str] = None) -> str:
    """A digest of a whole program (or of the subtree reachable from
    ``entrypoint``), suitable as a coarse whole-program cache key."""
    if entrypoint is not None:
        return fingerprint_text("program", entrypoint,
                                component_fingerprint(entrypoint, program))
    memo: Dict[str, str] = {}
    parts = []
    for name in sorted(program.components):
        parts.append(name)
        parts.append(component_fingerprint(name, program, memo))
    return fingerprint_text("program", *parts)


def calyx_component_fingerprint(component) -> str:
    """The digest of one Calyx component, built from the IR's deterministic
    printer.  Invariant under regeneration (two structurally equal
    components print identically) and sensitive to every port, cell
    parameter, wire, guard and source."""
    return fingerprint_text("calyx-component", str(component))


def calyx_fingerprint(program, entrypoint: Optional[str] = None) -> str:
    """A stable content digest of a whole :class:`CalyxProgram`.

    A calyx-entry session (generator frontends) memoizes its ``calyx``
    and ``verilog`` stages on it: equal digests mean the netlists are
    structurally identical, so the Verilog emitted for one serves the
    other.  Component order in the ``components`` dict does not matter;
    the entrypoint does."""
    parts = [entrypoint or program.entrypoint or ""]
    for name in sorted(program.components):
        parts.append(name)
        parts.append(calyx_component_fingerprint(program.components[name]))
    return fingerprint_text("calyx-program", *parts)


def fingerprint_snapshot(program: Program) -> Dict[str, str]:
    """Every component's *self* fingerprint, keyed by name.  This is the
    query layer's notion of the program's inputs: comparing two snapshots
    yields exactly the set of edited / added / removed components."""
    return {name: component_self_fingerprint(component)
            for name, component in program.components.items()}


def component_parts(component: Component) -> Tuple[object, ...]:
    """The parts a Filament component's printed text is made of: the
    component, its signature and each body command."""
    return (component, component.signature, *component.body)


def calyx_component_parts(component) -> Tuple[object, ...]:
    """The parts a Calyx component's printed text is made of: its name and
    each port spec, cell and assignment."""
    return (component.name, *component.inputs, _LIST_END, *component.outputs,
            _LIST_END, *component.cells, _LIST_END, *component.wires)


def same_parts(old: Tuple[object, ...], new: Tuple[object, ...]) -> bool:
    """Whether every part in ``new`` is the very object at the same place
    in ``old``: then the component prints as it did when ``old`` was
    taken."""
    return len(old) == len(new) and all(map(is_, old, new))
