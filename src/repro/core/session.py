"""Compilation sessions: compile once, reuse everywhere — incrementally.

Every entry point of the repository used to re-run the full pipeline
(parse → type check → lower → Calyx → Verilog) from scratch, even when the
evaluation drives the *same* design through several experiments.
:class:`CompilationSession` is the façade over that pipeline.  Since the
incremental refactor it is a thin wrapper around the demand-driven,
content-addressed query layer (:mod:`repro.core.queries`):

* the pipeline runs as **per-component queries** with recorded dependency
  edges — two entrypoints sharing a sub-component compile it exactly once.
  Artifacts live in the session's own memo table; sessions share none;
* **mutation is survived, not punished**: every public stage entry re-
  fingerprints the program (content, not ``id()``), so editing one
  component in place recompiles only that component and its transitive
  dependents — everything else is verified from cache.  Early cutoff means
  a body-only edit of a leaf does not even recompile its clients (they
  depend only on its signature, the paper's modularity claim);
* each stage call is timed into one running total per stage (seconds,
  hits, misses), which :meth:`stage_seconds`/:meth:`cache_stats` read —
  this is what the compile-time benchmark reports as the per-stage
  breakdown.  :meth:`query_stats` exposes the engine's query counters and
  :attr:`engine` the engine itself (execution log, recompile footprint).

The one-call helpers (:func:`repro.core.lower.compile_program`,
:func:`repro.harness.harness_for`) remain available as thin wrappers that
route through a session; :meth:`CompilationSession.for_program` hands out a
shared per-``Program`` session so those wrappers benefit from the caches
when called repeatedly on the same program object.

Since the frontend unification, a session can also be built **from a Calyx
program** (:meth:`CompilationSession.from_calyx`): generator frontends
(Aetherling, PipelineC, Reticle — see :mod:`repro.core.frontend`) have no
Filament AST, so their designs enter the pipeline at the ``calyx`` stage
keyed by a stable content fingerprint
(:func:`repro.core.fingerprint.calyx_fingerprint`).  The ``calyx`` and
``verilog`` stages of such a session memoize their artifact next to that
fingerprint: the first call is a miss, a repeat over an unchanged netlist
is a recorded hit, and in-place mutation of the netlist is survived by
re-fingerprinting on every public stage call — exactly the contract
Filament-backed sessions have.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from .ast import Program
from .errors import FilamentError
from .queries import QueryEngine
from .typecheck import CheckedProgram

__all__ = ["CompilationSession", "STAGES"]

#: Pipeline stages in order; ``compile(upto=...)`` accepts any of these.
STAGES: Tuple[str, ...] = ("parse", "check", "lower", "calyx", "verilog")


class CompilationSession:
    """A memoizing, incremental compilation pipeline for one program."""

    def __init__(self, program: Optional[Program] = None, *,
                 source: Optional[str] = None,
                 checked: Optional[CheckedProgram] = None,
                 calyx=None, frontend: Optional[str] = None) -> None:
        if sum(x is not None for x in (program, source, calyx)) != 1:
            raise FilamentError(
                "CompilationSession needs exactly one of a Program, source "
                "text, or a Calyx program"
            )
        self._program = program
        self._source = source
        self._engine: Optional[QueryEngine] = None
        self._pending_checked = checked
        self._calyx_entry = calyx
        self._calyx_fingerprint: Optional[str] = None
        #: Calyx-entry sessions: stage -> (netlist fingerprint, artifact).
        self._calyx_memo: Dict[str, Tuple[str, object]] = {}
        #: Which frontend produced this design ("filament" for native
        #: sessions; "aetherling"/"pipelinec"/"reticle"/"calyx" for
        #: calyx-entry sessions).
        self.frontend = frontend or ("filament" if calyx is None else "calyx")
        #: stage -> [seconds executing, hits, misses], summed over calls.
        self._stages: Dict[str, List] = {}
        if program is not None:
            self._ensure_engine()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_source(cls, source: str) -> "CompilationSession":
        """A session whose first stage parses Filament source text (the
        standard library is merged in, as every entry point expects)."""
        return cls(source=source)

    @classmethod
    def from_calyx(cls, calyx, *,
                   frontend: str = "calyx") -> "CompilationSession":
        """A session for a design that enters the pipeline at the ``calyx``
        stage (generator frontends).  The parse/check/lower stages do not
        exist for it; ``calyx``/``verilog``/``simulator`` work as usual,
        keyed by the netlist's content fingerprint."""
        return cls(calyx=calyx, frontend=frontend)

    @classmethod
    def for_program(cls, program: Program) -> "CompilationSession":
        """The shared session for ``program``: repeated calls with the same
        program object return the same session (and therefore hit its
        caches).  Used by the thin compatibility wrappers.  The session is
        stored on the program object itself, so its lifetime — and the
        lifetime of every cached artifact — is exactly the program's.

        The session snapshots components by **content fingerprint** (not
        ``id()``, which a GC'd-and-reallocated component can alias), and it
        survives mutation: adding, replacing or editing a component in
        place recompiles only that component and its transitive dependents
        on the next compile, with everything else served from cache."""
        session = getattr(program, "_compilation_session", None)
        if session is None or session._program is not program:
            session = cls(program)
            program._compilation_session = session
        return session

    # -- engine plumbing -------------------------------------------------------

    def _no_filament(self, stage: str) -> FilamentError:
        return FilamentError(
            f"the {self.frontend} frontend enters the pipeline at the "
            f"calyx stage; the {stage!r} stage does not exist for this "
            f"session"
        )

    def _ensure_engine(self) -> QueryEngine:
        if self._calyx_entry is not None:
            raise self._no_filament("query")
        if self._engine is None:
            self._engine = QueryEngine(self.program)
        if self._pending_checked is not None:
            self._engine.seed_checks(self._pending_checked)
            self._pending_checked = None
        return self._engine

    def _sync(self) -> QueryEngine:
        """Refresh the engine's content fingerprints so queries observe any
        in-place mutation made since the last public stage call."""
        engine = self._ensure_engine()
        engine.refresh()
        return engine

    @property
    def engine(self) -> QueryEngine:
        """The underlying query engine (execution log, recompile footprint,
        query counters)."""
        return self._ensure_engine()

    def refresh(self) -> bool:
        """Re-fingerprint the program now; True when anything changed.
        (Public stage methods do this automatically.)"""
        if self._calyx_entry is not None:
            from .fingerprint import calyx_fingerprint
            fingerprint = calyx_fingerprint(self._calyx_entry)
            changed = (self._calyx_fingerprint is not None
                       and fingerprint != self._calyx_fingerprint)
            self._calyx_fingerprint = fingerprint
            return changed
        return self._ensure_engine().refresh()

    # -- instrumentation -------------------------------------------------------

    def _record(self, stage: str, seconds: float,
                cached: bool = False) -> None:
        totals = self._stages.setdefault(stage, [0.0, 0, 0])
        if cached:
            totals[1] += 1
        else:
            totals[0] += seconds
            totals[2] += 1

    def stage_seconds(self) -> Dict[str, float]:
        """Total wall-clock seconds spent actually executing each stage
        that executed at least once (cache hits contribute nothing)."""
        return {stage: seconds
                for stage, (seconds, _, misses) in self._stages.items()
                if misses}

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage ``{"hits": n, "misses": m}`` counters.  A "miss" means
        the session stage ran queries (or, in a calyx-entry session, met a
        netlist fingerprint it had not served yet)."""
        return {stage: {"hits": hits, "misses": misses}
                for stage, (_, hits, misses) in self._stages.items()}

    def query_stats(self) -> dict:
        """The engine's query counters (executed / verified / revision).
        Calyx-entry sessions run no queries; their counters are zero."""
        if self._calyx_entry is not None:
            from .queries import QueryStats
            return QueryStats().to_dict()
        return self._ensure_engine().stats.to_dict()

    # -- stages ----------------------------------------------------------------

    @property
    def program(self) -> Program:
        """The parsed program (running the parse stage on first access when
        the session was built from source text)."""
        if self._calyx_entry is not None:
            raise self._no_filament("parse")
        if self._program is None:
            from .parser import parse_program
            from .stdlib import with_stdlib
            start = time.perf_counter()
            self._program = with_stdlib(parse_program(self._source))
            self._record("parse", time.perf_counter() - start)
        return self._program

    def _staged_query(self, stage: str, target: str, record_stage: str,
                      counted: Tuple[str, ...]):
        """Run one engine query, recording a session timing whose ``cached``
        flag reflects whether any query of the counted stages executed."""
        engine = self._ensure_engine()
        mark = engine.log_mark()
        start = time.perf_counter()
        value = engine.query(stage, target)
        seconds = time.perf_counter() - start
        executed = engine.executed_since(mark, counted)
        self._record(record_stage, seconds, cached=not executed)
        return value

    def check(self) -> CheckedProgram:
        """Type check the whole program (incremental: only components whose
        content — or whose instantiated signatures — changed re-check)."""
        if self._calyx_entry is not None:
            raise self._no_filament("check")
        self._sync()
        return self._check_inner()

    def _check_inner(self) -> CheckedProgram:
        return self._staged_query("link_check", "<program>", "check",
                                  ("check",))

    def lower(self, entrypoint: str):
        """Lower ``entrypoint`` (and its transitive user components) to Low
        Filament.  Components are memoized individually, so entrypoints
        sharing sub-components lower each of them once."""
        if self._calyx_entry is not None:
            raise self._no_filament("lower")
        self._sync()
        return self._lower_inner(entrypoint)

    def _lower_inner(self, entrypoint: str):
        engine = self._ensure_engine()
        if engine.is_clean("link_lower", entrypoint):
            self._record("lower", 0.0, cached=True)
            return engine.query("link_lower", entrypoint)
        self._check_inner()
        return self._staged_query("link_lower", entrypoint, "lower",
                                  ("lower", "link_lower"))

    def _calyx_target(self, entrypoint: Optional[str]) -> str:
        target = entrypoint or self._calyx_entry.entrypoint
        if target is None:
            raise FilamentError(
                "calyx-entry session needs an entrypoint (the Calyx "
                "program declares none)")
        if target not in self._calyx_entry.components:
            raise FilamentError(
                f"entrypoint {target!r} is not a component of this Calyx "
                f"program (components: "
                f"{', '.join(sorted(self._calyx_entry.components))})")
        return target

    def _calyx_memoized(self, stage: str, start: float, compute):
        """One stage of a calyx-entry session: its artifact as of the
        current netlist fingerprint, computed again only when the
        fingerprint moved since this stage last ran."""
        memo = self._calyx_memo.get(stage)
        cached = memo is not None and memo[0] == self._calyx_fingerprint
        if not cached:
            memo = self._calyx_memo[stage] = (self._calyx_fingerprint,
                                              compute())
        self._record(stage, time.perf_counter() - start, cached=cached)
        return memo[1]

    def _calyx_stage(self, entrypoint: Optional[str]):
        """The ``calyx`` stage of a calyx-entry session: re-fingerprint the
        netlist (mutation is survived, like Filament sessions); a repeat
        over an unchanged netlist records a cache hit."""
        self._calyx_target(entrypoint)
        start = time.perf_counter()
        self.refresh()
        return self._calyx_memoized("calyx", start, lambda: self._calyx_entry)

    def calyx(self, entrypoint: str):
        """Translate ``entrypoint`` to a Calyx program (per-component
        queries, served from cache wherever content is unchanged)."""
        if self._calyx_entry is not None:
            return self._calyx_stage(entrypoint)
        self._sync()
        return self._calyx_inner(entrypoint)

    def _calyx_inner(self, entrypoint: str):
        engine = self._ensure_engine()
        if engine.is_clean("link_calyx", entrypoint):
            self._record("calyx", 0.0, cached=True)
            return engine.query("link_calyx", entrypoint)
        self._lower_inner(entrypoint)
        return self._staged_query("link_calyx", entrypoint, "calyx",
                                  ("calyx", "link_calyx"))

    def verilog(self, entrypoint: str) -> str:
        """Emit Verilog text for ``entrypoint`` (per-component module
        emission; only dirty modules re-emit)."""
        if self._calyx_entry is not None:
            from .lower.verilog_backend import emit_verilog
            self._calyx_stage(entrypoint)
            return self._calyx_memoized(
                "verilog", time.perf_counter(),
                lambda: emit_verilog(self._calyx_entry))
        self._sync()
        return self._verilog_inner(entrypoint)

    def _verilog_inner(self, entrypoint: str) -> str:
        engine = self._ensure_engine()
        if engine.is_clean("verilog", entrypoint):
            self._record("verilog", 0.0, cached=True)
            return engine.query("verilog", entrypoint)
        self._calyx_inner(entrypoint)
        return self._staged_query("verilog", entrypoint, "verilog",
                                  ("vcomp", "verilog"))

    # -- the one-call API ------------------------------------------------------

    def compile(self, entrypoint: Optional[str] = None, upto: str = "calyx"):
        """Run the pipeline up to (and including) stage ``upto`` and return
        that stage's artifact: the :class:`Program` for ``"parse"``, the
        :class:`CheckedProgram` for ``"check"``, the Low Filament program
        for ``"lower"``, the Calyx program for ``"calyx"`` (the default) or
        the Verilog text for ``"verilog"``."""
        if upto not in STAGES:
            raise FilamentError(
                f"unknown pipeline stage {upto!r}; expected one of "
                f"{', '.join(STAGES)}"
            )
        if self._calyx_entry is not None and upto not in ("calyx", "verilog"):
            raise self._no_filament(upto)
        if upto == "parse":
            return self.program
        if upto == "check":
            return self.check()
        if entrypoint is None:
            raise FilamentError(f"stage {upto!r} needs an entrypoint")
        if upto == "lower":
            return self.lower(entrypoint)
        if upto == "calyx":
            return self.calyx(entrypoint)
        return self.verilog(entrypoint)

    # -- downstream conveniences -----------------------------------------------

    def simulator(self, entrypoint: str, mode: str = "auto"):
        """A fresh :class:`~repro.sim.Simulator` for the compiled
        ``entrypoint`` (compiling it on first use).

        With ``mode="compiled"`` or ``"native"`` the engine decides its
        tier eagerly (:meth:`~repro.sim.engine.ScheduledEngine.prepare`),
        and the whole wait is recorded as one stage timing: ``"native"``
        when the C kernel runs (in-memory and on-disk cache hits both count
        as cached; its one entry serves scalar and lane batches alike),
        ``"kernel"`` when the compiled-Python kernel runs — including a
        native attempt that fell back to it — and nothing when the
        interpreter runs.  Kernels are linked from per-component chunks in
        a process-wide cache (keyed by each component's plan, never its
        children's bodies), so a warm rebuild shows up as a cache hit, and
        an edit regenerates only the edited component's chunk."""
        from ..sim.simulator import Simulator
        simulator = Simulator(self.calyx(entrypoint), entrypoint, mode=mode)
        if mode in ("compiled", "native"):
            start = time.perf_counter()
            info = simulator.prepare()
            seconds = time.perf_counter() - start
            if info["native"]:
                self._record("native", seconds, cached=info["native_cached"])
            elif info["kernel"]:
                self._record("kernel", seconds, cached=info["cached"])
        return simulator

    def harness(self, entrypoint: str):
        """A cycle-accurate harness for ``entrypoint`` driven by its own
        timeline type (compiling it on first use).  Calyx-entry sessions
        carry no timeline types; build a harness from the frontend bundle's
        reported :class:`~repro.harness.spec.InterfaceSpec` instead
        (:meth:`repro.core.frontend.SourceBundle.harness`)."""
        if self._calyx_entry is not None:
            raise FilamentError(
                f"the {self.frontend} frontend has no timeline types to "
                f"derive a harness from; use the source bundle's reported "
                f"interface spec (repro.core.frontend)")
        from ..harness.driver import harness_for
        return harness_for(self.program, entrypoint,
                           calyx=self.calyx(entrypoint))
