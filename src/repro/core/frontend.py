"""The uniform frontend abstraction: every design source, one pipeline.

The paper's §7.1/§7.2 case studies import externally generated designs —
Aetherling's space-time-typed streaming kernels, PipelineC's auto-pipelined
dataflow functions, Reticle's structural DSP cascades — into Filament
through timeline-typed extern signatures.  Before this module, those
generators produced raw :class:`~repro.calyx.ir.CalyxProgram`\\ s that
bypassed everything PR 1–7 built: no content fingerprints, no compile
cache, no four-engine conformance, no Verilog loop.

A :class:`DesignSource` adapter turns any frontend's output into a
:class:`SourceBundle` — a fingerprintable artifact bundle holding whichever
artifacts the frontend has:

* hand-written **Filament** (:class:`FilamentSource`): the parsed AST; the
  pipeline enters at ``parse`` as always;
* **Aetherling** (:class:`AetherlingSource`): a Calyx netlist, the
  generator's *reported* (claimed) interface spec — deliberately wrong for
  the underutilized 1/3 and 1/9 design points, reproducing the bug Table 1
  documents — and the pixel-stream golden model;
* **PipelineC** (:class:`PipelineCSource`): a Calyx netlist, the Filament
  extern signature written from the reported latency, and a golden model
  that interprets the dataflow graph;
* **Reticle** (:class:`ReticleSource`): an extern signature plus a
  registered black-box simulation model; the adapter synthesizes the
  wrapper netlist that instantiates the cascade so the design is drivable
  like any other.

``bundle().session()`` yields a :class:`~repro.core.session.CompilationSession`
for any source: Filament bundles get the ordinary query-backed session,
generator bundles get a **calyx-entry session** keyed by the netlist's
content fingerprint (:func:`~repro.core.fingerprint.calyx_fingerprint`), so
generator outputs are memoized, recompiled after in-place edits and
simulated on all four engine tiers exactly like native programs.
``bundle()`` re-runs the generator every call — two bundles from one
source must produce equal fingerprints, or generator output is unstable
(the conformance frontend way asserts this).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..calyx.ir import (Assignment, CalyxComponent, CalyxProgram, Cell,
                        CellPort, PortSpec)
from .ast import Component, Program
from .errors import FilamentError
from .fingerprint import (calyx_fingerprint, fingerprint_text,
                          program_fingerprint, signature_fingerprint)
from .session import CompilationSession

__all__ = [
    "FRONTENDS",
    "SourceBundle",
    "DesignSource",
    "FilamentSource",
    "AetherlingSource",
    "PipelineCSource",
    "ReticleSource",
    "design_root",
    "frontend_source",
    "generator_sources",
]

#: The four frontends, in the order the paper introduces them.
FRONTENDS: Tuple[str, ...] = ("filament", "aetherling", "pipelinec",
                              "reticle")

#: A stream-level golden model: per-transaction input dicts in, expected
#: per-transaction output dicts out (same length and order).
GoldenModel = Callable[[List[dict]], List[dict]]


def design_root(program: Program) -> str:
    """The design root: the unique user component not instantiated by any
    other user component."""
    users = program.user_components()
    if not users:
        raise FilamentError("program defines no user components")
    instantiated = {
        instantiate.component
        for component in users
        for instantiate in component.instantiations()
    }
    roots = [c.name for c in users if c.name not in instantiated]
    if len(roots) == 1:
        return roots[0]
    candidates = roots or [c.name for c in users]
    raise FilamentError(
        f"cannot pick an entrypoint automatically (candidates: "
        f"{', '.join(candidates)}); name one explicitly"
    )


def _spec_text(spec) -> str:
    """A stable textual encoding of an :class:`InterfaceSpec` for
    fingerprinting (port name/width/window, interface ports, II)."""
    parts = [spec.name, f"ii={spec.initiation_interval}"]
    parts += [f"if:{name}@{offset}"
              for name, offset in sorted(spec.interface_ports.items())]
    for direction, ports in (("in", spec.inputs), ("out", spec.outputs)):
        parts += [f"{direction}:{p.name}:{p.width}:{p.start}:{p.end}"
                  for p in ports]
    return ";".join(parts)


class SourceBundle:
    """The fingerprintable artifact bundle one frontend yields for one
    design.  Exactly one of ``program`` (Filament AST) or ``calyx``
    (generator netlist) is set; generator bundles additionally carry the
    extern signatures, the *reported* interface spec, the golden model, and
    whether the frontend's claim about its interface is believed correct
    (Aetherling's underutilized points claim wrong — the conformance
    frontend way checks the audit catches them)."""

    def __init__(self, name: str, frontend: str, *,
                 program: Optional[Program] = None,
                 calyx: Optional[CalyxProgram] = None,
                 externs: Tuple[Component, ...] = (),
                 spec=None,
                 golden: Optional[GoldenModel] = None,
                 claim_correct: bool = True) -> None:
        if (program is None) == (calyx is None):
            raise FilamentError(
                "a SourceBundle carries exactly one of a Filament program "
                "or a Calyx program")
        self.name = name
        self.frontend = frontend
        self.program = program
        self.calyx = calyx
        self.externs = tuple(externs)
        self.spec = spec
        self.golden = golden
        self.claim_correct = claim_correct
        parts = ["bundle", frontend, name]
        if program is not None:
            parts.append(program_fingerprint(program, name))
        if calyx is not None:
            parts.append(calyx_fingerprint(calyx, name))
        parts += [signature_fingerprint(extern) for extern in self.externs]
        if spec is not None:
            parts.append(_spec_text(spec))
        #: Content fingerprint of the whole bundle: netlist/AST, extern
        #: signatures and reported spec.  Regenerating an unchanged design
        #: reproduces it exactly.
        self.fingerprint = fingerprint_text(*parts)

    def session(self) -> CompilationSession:
        """A compilation session for this bundle: query-backed for Filament
        sources, calyx-entry (content-fingerprint keyed) for generators."""
        if self.calyx is not None:
            return CompilationSession.from_calyx(self.calyx,
                                                 frontend=self.frontend)
        return CompilationSession.for_program(self.program)

    def harness(self, mode: str = "compiled", session=None):
        """A cycle-accurate harness: timeline-typed for Filament bundles,
        driven by the frontend's reported spec for generator bundles."""
        if self.calyx is not None:
            from ..harness.driver import CycleAccurateHarness
            if self.spec is None:
                raise FilamentError(
                    f"{self.name}: the {self.frontend} bundle reports no "
                    f"interface spec to drive a harness from")
            return CycleAccurateHarness(self.calyx, self.spec,
                                        component=self.name, mode=mode)
        from ..harness.driver import harness_for
        return harness_for(self.program, self.name, session=session,
                           mode=mode)


try:
    from typing import Protocol, runtime_checkable

    @runtime_checkable
    class DesignSource(Protocol):
        """Anything that can yield a fingerprintable artifact bundle."""

        frontend: str
        name: str

        def bundle(self) -> SourceBundle: ...
except ImportError:  # pragma: no cover - Python < 3.8
    DesignSource = object  # type: ignore[assignment,misc]


# ---------------------------------------------------------------------------
# Adapters
# ---------------------------------------------------------------------------


class FilamentSource:
    """Hand-written Filament: a program object or source text."""

    frontend = "filament"

    def __init__(self, program: Optional[Program] = None, *,
                 source: Optional[str] = None,
                 entrypoint: Optional[str] = None) -> None:
        if (program is None) == (source is None):
            raise FilamentError(
                "FilamentSource needs exactly one of a Program or source "
                "text")
        if program is None:
            from .parser import parse_program
            from .stdlib import with_stdlib
            program = with_stdlib(parse_program(source))
        self._program = program
        self.name = entrypoint or design_root(program)

    def bundle(self) -> SourceBundle:
        return SourceBundle(self.name, self.frontend, program=self._program)


class AetherlingSource:
    """One Aetherling design point: ``kernel`` at ``throughput`` pixels per
    clock (Table 1's axes).  The bundle's spec is the generator's *claimed*
    interface; for the underutilized 1/3 and 1/9 points the claim is wrong
    by design (``claim_correct=False``) and the golden model tells the
    truth."""

    frontend = "aetherling"

    def __init__(self, kernel: str = "conv2d",
                 throughput: Union[Fraction, int, float] = 1) -> None:
        from ..generators.aetherling import generate
        self._generate = lambda: generate(kernel, throughput)
        design = self._generate()
        self.kernel = design.kernel
        self.throughput = design.throughput
        self.name = design.name

    def bundle(self) -> SourceBundle:
        design = self._generate()

        def golden(stream: List[dict]) -> List[dict]:
            pixels = [transaction.get(port, 0)
                      for transaction in stream
                      for port in design.input_ports]
            expected = design.golden(pixels)
            lanes = len(design.output_ports)
            return [
                {port: expected[index * lanes + lane]
                 for lane, port in enumerate(design.output_ports)}
                for index in range(len(stream))
            ]

        return SourceBundle(design.name, self.frontend, calyx=design.calyx,
                            spec=design.reported_spec(), golden=golden,
                            claim_correct=not design.underutilized)


class PipelineCSource:
    """One PipelineC import: the ``fpadd`` (latency 6) or ``aes`` (latency
    18) design of Appendix B.2.  The bundle carries the extern signature a
    Filament user writes from the reported latency (always correct —
    PipelineC designs are fully pipelined) and a golden model that
    interprets the dataflow graph."""

    frontend = "pipelinec"

    def __init__(self, design: str = "fpadd") -> None:
        from ..generators.pipelinec import aes_design, fp_add_design
        builders = {"fpadd": fp_add_design, "aes": aes_design}
        key = design.lower()
        if key not in builders:
            raise FilamentError(
                f"unknown PipelineC design {design!r}; expected one of "
                f"{', '.join(sorted(builders))}")
        self._build = builders[key]
        self.name = self._build().name

    def bundle(self) -> SourceBundle:
        from ..harness.spec import spec_from_signature
        design = self._build()
        extern = design.filament_signature()
        spec = spec_from_signature(extern.signature,
                                   default_width=design.graph.width)
        graph = design.graph

        def golden(stream: List[dict]) -> List[dict]:
            return [{"out": _evaluate_graph(graph, transaction)}
                    for transaction in stream]

        return SourceBundle(design.name, self.frontend, calyx=design.calyx,
                            externs=(extern,), spec=spec, golden=golden)


def _evaluate_graph(graph, transaction: dict) -> int:
    """Interpret a PipelineC dataflow graph on one transaction, with the
    same width masking the netlist primitives apply."""
    limit = (1 << graph.width) - 1
    values: Dict[str, int] = {
        name: int(transaction.get(name, 0)) & limit for name in graph.inputs}
    operations: Dict[str, Callable[[int, int], int]] = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "xor": lambda a, b: a ^ b,
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "mul": lambda a, b: a * b,
        "shl": lambda a, b: a << b,
        "shr": lambda a, b: a >> b,
    }
    for op in graph.ops:
        left = values[op.lhs]
        right = values[op.rhs] if isinstance(op.rhs, str) else int(op.rhs)
        values[op.name] = operations[op.op](left, right) & limit
    return values[graph.output]


class ReticleSource:
    """One Reticle import: the paper's staggered 3-element ``Tdot`` cascade
    (``tdot``) or the 9-tap weighted dot product behind the Table 2
    "Filament Reticle" conv2d (``dot9``).  Reticle emits no Calyx — only an
    extern signature plus a registered black-box model — so the adapter
    synthesizes the wrapper netlist instantiating the cascade cell."""

    frontend = "reticle"

    def __init__(self, design: str = "tdot") -> None:
        key = design.lower()
        if key not in ("tdot", "dot9"):
            raise FilamentError(
                f"unknown Reticle design {design!r}; expected 'tdot' or "
                f"'dot9'")
        self._key = key
        self.name = f"reticle_{key}"

    def bundle(self) -> SourceBundle:
        from ..designs.golden import CONV_WEIGHTS
        from ..generators.reticle import TDOT_LATENCY, dot_cascade, tdot_signature
        from ..harness.spec import spec_from_signature

        if self._key == "tdot":
            extern = tdot_signature()
            width = 8
            primitive = "Tdot"

            def golden(stream: List[dict]) -> List[dict]:
                limit = (1 << width) - 1
                return [
                    {"y": (sum(t.get(f"a{i}", 0) * t.get(f"b{i}", 0)
                               for i in range(3)) + t.get("c", 0)) & limit}
                    for t in stream
                ]
        else:
            # The same cascade the Table 2 conv2d instantiates: identical
            # name, weights, width and latency, so the registered model is
            # shared rather than clobbered.
            from ..designs.conv2d import _ACC_WIDTH, RETICLE_CASCADE_LATENCY
            extern, _report = dot_cascade("ReticleDot", CONV_WEIGHTS,
                                          width=_ACC_WIDTH,
                                          latency=RETICLE_CASCADE_LATENCY)
            width = _ACC_WIDTH
            primitive = "ReticleDot"
            weights = tuple(CONV_WEIGHTS)

            def golden(stream: List[dict]) -> List[dict]:
                limit = (1 << width) - 1
                return [
                    {"y": sum(w * t.get(f"x{i}", 0)
                              for i, w in enumerate(weights)) & limit}
                    for t in stream
                ]

        spec = spec_from_signature(extern.signature, default_width=width)
        spec.name = self.name

        component = CalyxComponent(
            self.name,
            inputs=[PortSpec(port.name, port.width) for port in spec.inputs],
            outputs=[PortSpec("y", width)],
        )
        component.cells.append(Cell("dsp", primitive, (width,)))
        for port in spec.inputs:
            component.wires.append(
                Assignment(CellPort("dsp", port.name),
                           CellPort(None, port.name)))
        component.wires.append(
            Assignment(CellPort(None, "y"), CellPort("dsp", "y")))
        calyx = CalyxProgram(entrypoint=self.name)
        calyx.add(component)

        return SourceBundle(self.name, self.frontend, calyx=calyx,
                            externs=(extern,), spec=spec, golden=golden)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def frontend_source(frontend: str,
                    design: Optional[str] = None) -> "DesignSource":
    """The adapter for one CLI-style designation:

    * ``filament`` — ``design`` is a path handled by the caller (this
      function rejects it; the compile CLI builds :class:`FilamentSource`
      from file contents itself);
    * ``aetherling`` — ``kernel[@throughput]``, e.g. ``conv2d@1`` (the
      default) or ``sharpen@1/3``;
    * ``pipelinec`` — ``fpadd`` (default) or ``aes``;
    * ``reticle`` — ``tdot`` (default) or ``dot9``.
    """
    if frontend == "aetherling":
        designation = design or "conv2d@1"
        kernel, _, rate = designation.partition("@")
        throughput = Fraction(rate) if rate else Fraction(1)
        return AetherlingSource(kernel, throughput)
    if frontend == "pipelinec":
        return PipelineCSource(design or "fpadd")
    if frontend == "reticle":
        return ReticleSource(design or "tdot")
    raise FilamentError(
        f"unknown generator frontend {frontend!r}; expected one of "
        f"{', '.join(name for name in FRONTENDS if name != 'filament')}")


def generator_sources(frontend: Optional[str] = None,
                      full: bool = False) -> List["DesignSource"]:
    """The generator design sources the conformance frontend way sweeps.

    The default set is one representative per regime: a fully-parallel and
    an underutilized (claim-buggy) Aetherling point per selection, both
    PipelineC designs, both Reticle cascades.  ``full=True`` expands
    Aetherling to all fourteen Table 1 points."""
    sources: List["DesignSource"] = []
    if frontend in (None, "aetherling"):
        from ..generators.aetherling import KERNELS, THROUGHPUTS
        if full:
            points = [(kernel, throughput) for kernel in KERNELS
                      for throughput in THROUGHPUTS]
        else:
            points = [("conv2d", Fraction(1)), ("sharpen", Fraction(2)),
                      ("conv2d", Fraction(1, 3))]
        sources += [AetherlingSource(kernel, throughput)
                    for kernel, throughput in points]
    if frontend in (None, "pipelinec"):
        sources += [PipelineCSource("fpadd"), PipelineCSource("aes")]
    if frontend in (None, "reticle"):
        sources += [ReticleSource("tdot"), ReticleSource("dot9")]
    if not sources:
        raise FilamentError(
            f"unknown generator frontend {frontend!r}; expected one of "
            f"{', '.join(name for name in FRONTENDS if name != 'filament')}")
    return sources
