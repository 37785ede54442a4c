"""Compilation-time measurement ("All benchmarks compile in under a second",
Section 7).

Every evaluation design is pushed through the full pipeline (type check →
Low Filament → Calyx) via a :class:`~repro.core.session.CompilationSession`
and timed; the benchmark asserts the paper's one-second bound holds for each
of them.  The session's stage instrumentation additionally yields a
per-stage breakdown (check / lower / calyx emit) and a *warm* recompile
time, which is a cache hit and therefore near zero.

:func:`measure_sim_throughput` complements this with the execution side:
cycles-per-second of the naive fixpoint interpreter versus the compiled,
scheduled engine on the same stimulus (the before/after figure the
benchmarks print).
"""

from __future__ import annotations

import dis
import gc
import itertools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.ast import ConstantPort, Invoke, Program
from ..core.builder import ComponentBuilder, const
from ..core.session import CompilationSession
from ..core.stdlib import with_stdlib
from ..designs import (
    addmult_program,
    alu_program,
    conv2d_base_program,
    conv2d_reticle_program,
    divider_program,
    mac_program,
    systolic_program,
)

__all__ = [
    "CompileTiming",
    "EditCost",
    "IncrementalTiming",
    "SimThroughput",
    "chain_program",
    "edit_chain_leaf",
    "evaluation_designs",
    "measure_compile_times",
    "measure_edit_costs",
    "measure_incremental_compile",
    "measure_sim_throughput",
]


@dataclass
class CompileTiming:
    """Wall-clock compilation time of one design, with the session's
    per-stage breakdown and the warm (fully cached) recompile time."""

    name: str
    seconds: float
    stages: Dict[str, float] = field(default_factory=dict)
    warm_seconds: float = 0.0

    @property
    def under_a_second(self) -> bool:
        return self.seconds < 1.0


@dataclass
class SimThroughput:
    """Cycles-per-second of one design under every simulation engine tier
    (fixpoint sweep, levelized schedule, generated kernel)."""

    name: str
    cycles: int
    fixpoint_cps: float
    scheduled_cps: float
    compiled_cps: float = 0.0

    @property
    def speedup(self) -> float:
        if self.fixpoint_cps <= 0.0:
            return float("inf")
        return self.scheduled_cps / self.fixpoint_cps

    @property
    def kernel_speedup(self) -> float:
        """The compiled kernel relative to the scheduled interpreter."""
        if self.scheduled_cps <= 0.0:
            return float("inf")
        return self.compiled_cps / self.scheduled_cps


def evaluation_designs() -> List[Tuple[str, Callable[[], Tuple[Program, str]]]]:
    """Every Filament design the evaluation compiles, as (label, thunk)."""

    def reticle() -> Tuple[Program, str]:
        program, _ = conv2d_reticle_program()
        return program, "Conv2dReticle"

    return [
        ("alu-sequential", lambda: (alu_program("sequential"), "ALU")),
        ("alu-pipelined", lambda: (alu_program("pipelined"), "ALU")),
        ("addmult", lambda: (addmult_program(), "AddMult")),
        ("divider-comb", lambda: (divider_program("comb"), "CombDiv")),
        ("divider-pipelined", lambda: (divider_program("pipelined"), "PipeDiv")),
        ("divider-iterative", lambda: (divider_program("iterative"), "IterDiv")),
        ("conv2d-base", lambda: (conv2d_base_program(), "Conv2d")),
        ("conv2d-reticle", reticle),
        ("systolic", lambda: (systolic_program(), "Systolic")),
        ("mac-pipelined", lambda: (mac_program("pipelined"), "MacPipe")),
    ]


def measure_compile_times() -> List[CompileTiming]:
    """Time the full compilation of every evaluation design through a fresh
    session, recording the per-stage breakdown and the warm recompile."""
    timings: List[CompileTiming] = []
    for name, thunk in evaluation_designs():
        program, entrypoint = thunk()
        session = CompilationSession(program)
        start = time.perf_counter()
        session.calyx(entrypoint)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        session.calyx(entrypoint)  # cache hit: no re-typecheck, no re-lower
        warm = time.perf_counter() - start
        timings.append(CompileTiming(name, cold,
                                     stages=session.stage_seconds(),
                                     warm_seconds=warm))
    return timings


def measure_sim_throughput(transactions: int = 24,
                           designs: Optional[Sequence[str]] = None,
                           seed: int = 7) -> List[SimThroughput]:
    """Drive every evaluation design with the same pipelined random
    transaction stream under both engines and report cycles per second.

    ``designs`` optionally restricts the run to the named labels (useful for
    a quick smoke benchmark).
    """
    from ..harness import harness_for, random_transactions
    from ..sim.simulator import Simulator

    results: List[SimThroughput] = []
    for name, thunk in evaluation_designs():
        if designs is not None and name not in designs:
            continue
        program, entrypoint = thunk()
        session = CompilationSession.for_program(program)
        calyx = session.calyx(entrypoint)
        harness = harness_for(program, entrypoint, calyx=calyx)
        stream = random_transactions(harness, transactions, seed=seed)
        stimulus, _ = harness._schedule(stream)

        rates: Dict[str, float] = {}
        for mode in ("fixpoint", "auto", "compiled"):
            simulator = Simulator(calyx, entrypoint, mode=mode)
            if mode == "compiled":
                # Codegen is a one-time compile cost (cached per
                # component); the figure is steady-state execution.
                simulator.prepare()
            start = time.perf_counter()
            simulator.run_batch(stimulus)
            elapsed = max(time.perf_counter() - start, 1e-9)
            rates[mode] = len(stimulus) / elapsed
        results.append(SimThroughput(name, len(stimulus),
                                     fixpoint_cps=rates["fixpoint"],
                                     scheduled_cps=rates["auto"],
                                     compiled_cps=rates["compiled"]))
    return results


# ---------------------------------------------------------------------------
# Incremental compilation ("edit one leaf of a K-component design")
# ---------------------------------------------------------------------------

#: Each measurement builds a content-unique chain (the salt lands in a leaf
#: constant) so "cold" really is cold in a warm process: the engine plan
#: cache and the kernel chunk cache are keyed by content and would
#: otherwise serve a repeat measurement's simulator build.
_CHAIN_SALTS = itertools.count(1)


@dataclass
class IncrementalTiming:
    """The incremental-edit figure for one K-component chain design: cold
    compile, warm recompile, and a recompile after an in-place edit of the
    leaf component — plus a from-scratch compile of the *mutated* program
    in a session of its own as the byte-equality referee.

    The simulator side of the same edit: ``rebuild_seconds`` rebuilds the
    compiled-tier harness simulator after the edit, with the pre-edit
    plans and kernel chunks cached, ``cold_rebuild_seconds`` rebuilds it
    again with both caches dropped, and ``chunks_regenerated`` counts the
    kernel chunks the first rebuild generated."""

    name: str
    components: int
    cold_seconds: float
    warm_seconds: float
    incremental_seconds: float
    scratch_seconds: float
    recompiled: List[str] = field(default_factory=list)
    identical: bool = False
    rebuild_seconds: float = 0.0
    cold_rebuild_seconds: float = 0.0
    chunks_regenerated: int = 0

    @property
    def incremental_speedup(self) -> float:
        """Incremental recompile vs the cold compile of the whole design."""
        return self.cold_seconds / max(self.incremental_seconds, 1e-9)

    @property
    def scratch_speedup(self) -> float:
        """Incremental recompile vs a from-scratch compile of the edit."""
        return self.scratch_seconds / max(self.incremental_seconds, 1e-9)

    @property
    def rebuild_speedup(self) -> float:
        """Simulator rebuild after the edit vs a cold rebuild."""
        return self.cold_rebuild_seconds / max(self.rebuild_seconds, 1e-9)


def chain_program(depth: int, width: int = 16,
                  salt: int = 0) -> Tuple[Program, str]:
    """A ``depth``-component chain design: ``Chain0`` (the leaf) computes
    ``(a + b) ^ salt`` and every ``Chain{i}`` adds ``b`` to ``Chain{i-1}``'s
    result, all combinational at ``G``.  Returns the program and the
    entrypoint name (the top of the chain)."""
    if depth < 1:
        raise ValueError("chain_program needs depth >= 1")
    components = []
    for index in range(depth):
        build = ComponentBuilder(f"Chain{index}")
        G = build.event("G", delay=1, interface="go")
        a = build.input("a", width, G, G + 1)
        b = build.input("b", width, G, G + 1)
        out = build.output("out", width, G, G + 1)
        if index == 0:
            adder = build.instantiate("A", "Add", [width])
            mixer = build.instantiate("X", "Xor", [width])
            summed = build.invoke("s0", adder, [G], [a, b])
            mixed = build.invoke("x0", mixer, [G],
                                 [summed["out"], const(salt, width)])
            build.connect(out, mixed["out"])
        else:
            inner = build.instantiate("P", f"Chain{index - 1}")
            partial = build.invoke("p0", inner, [G], [a, b])
            adder = build.instantiate("A", "Add", [width])
            summed = build.invoke("s0", adder, [G], [partial["out"], b])
            build.connect(out, summed["out"])
        components.append(build.build())
    return with_stdlib(components=components), f"Chain{depth - 1}"


def edit_chain_leaf(program: Program, value: int) -> None:
    """In-place body edit of the chain's leaf: change the constant fed to
    its mixer.  The leaf's interface is untouched, so its clients stay
    valid by early cutoff."""
    leaf = program.get("Chain0")
    for index, command in enumerate(leaf.body):
        if isinstance(command, Invoke) and any(
                isinstance(arg, ConstantPort) for arg in command.args):
            args = tuple(
                ConstantPort(value, arg.width)
                if isinstance(arg, ConstantPort) else arg
                for arg in command.args)
            leaf.body[index] = Invoke(command.name, command.instance,
                                      command.events, args)
            return
    raise ValueError("chain leaf has no constant-carrying invocation")


def measure_incremental_compile(depth: int = 16,
                                width: int = 16) -> IncrementalTiming:
    """The incremental-edit benchmark: cold-compile a ``depth``-component
    chain to Verilog, recompile warm, edit one leaf in place and recompile
    incrementally, then referee against a from-scratch compile of the
    mutated program in a new session.  The compiled-tier
    harness simulator is built before the edit and rebuilt after it, warm
    and then with the plan and kernel caches dropped, each rebuild timed
    after a full garbage collection."""
    from ..harness import harness_for
    from ..sim.codegen import clear_kernel_cache, kernel_cache_stats

    salt = next(_CHAIN_SALTS)
    # The edited constant lives at the top of the width's value range, far
    # from the small counter-assigned salts — were it ``salt + 1``, run N's
    # mutated program would be content-identical to run N+1's fresh chain
    # and warm the "cold" rebuild through the plan and chunk caches.
    edited_value = (1 << width) - 1 - salt
    program, entrypoint = chain_program(depth, width, salt=salt)
    session = CompilationSession(program)

    def rebuild() -> float:
        # A full collection owed by earlier work would land in whichever
        # rebuild allocates past the threshold; settle it first.
        gc.collect()
        start = time.perf_counter()
        harness = harness_for(program, entrypoint, session=session)
        harness._fresh_simulator().prepare()
        return time.perf_counter() - start

    start = time.perf_counter()
    session.verilog(entrypoint)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    session.verilog(entrypoint)
    warm = time.perf_counter() - start
    rebuild()

    edit_chain_leaf(program, edited_value)
    start = time.perf_counter()
    incremental_verilog = session.verilog(entrypoint)
    incremental = time.perf_counter() - start
    recompiled = session.engine.recompiled_components()
    incremental_calyx = str(session.calyx(entrypoint))
    misses = kernel_cache_stats()["misses"]
    rebuild_seconds = rebuild()
    chunks_regenerated = kernel_cache_stats()["misses"] - misses
    clear_kernel_cache()
    cold_rebuild_seconds = rebuild()

    scratch_program, _ = chain_program(depth, width, salt=salt)
    edit_chain_leaf(scratch_program, edited_value)
    scratch_session = CompilationSession(scratch_program)
    start = time.perf_counter()
    scratch_verilog = scratch_session.verilog(entrypoint)
    scratch = time.perf_counter() - start
    scratch_calyx = str(scratch_session.calyx(entrypoint))

    identical = (incremental_verilog == scratch_verilog
                 and incremental_calyx == scratch_calyx)
    return IncrementalTiming(
        name=f"chain{depth}",
        components=depth,
        cold_seconds=cold,
        warm_seconds=warm,
        incremental_seconds=incremental,
        scratch_seconds=scratch,
        recompiled=recompiled,
        identical=identical,
        rebuild_seconds=rebuild_seconds,
        cold_rebuild_seconds=cold_rebuild_seconds,
        chunks_regenerated=chunks_regenerated,
    )


# ---------------------------------------------------------------------------
# Per-edit cost against design size ("an edit costs what it changes")
# ---------------------------------------------------------------------------

#: Leaf values the depth sweep edits in, counted up from the top of the
#: 16-bit range (far from ``measure_incremental_compile``'s values) so no
#: edit is content-identical to anything built before it in the process:
#: a plan or chunk cache hit would cost less than a real edit does.
_SWEEP_VALUES = itertools.count(0xC000)


@dataclass
class EditCost:
    """The per-edit cost of one ``chain_program(depth)`` leaf edit: the
    median over ``edits`` in-place edits of ``session.verilog`` plus
    ``harness_for`` plus the compiled-tier simulator build, the median of
    that simulator's ``prepare()`` (its kernel link and instance), of the
    two together and of the kernel instance alone, and per edit how many
    components are printed (Filament components through the fingerprint
    printer plus Calyx components through ``str``), how many plans are
    resolved (calls of the engine's ``_plan_for``) and how many kernel
    chunks are linked.  The counts are the same at every depth when an
    edit costs only what it changes.  ``calls_per_cycle`` counts the
    Python calls one cycle of the last edit's kernel makes, its reused
    runs of segments fused, ``stores_per_cycle`` the slot stores that
    cycle executes (:func:`_stores_per_cycle`), and ``fusion_seconds`` is
    the one-time cost of compiling those pieces
    (:func:`_first_fusion_seconds`)."""

    depth: int
    edits: int
    median_seconds: float
    printed_per_edit: float
    prepare_seconds: float
    total_seconds: float
    plans_per_edit: float
    chunks_per_edit: float
    instance_seconds: float
    calls_per_cycle: int
    stores_per_cycle: int
    fusion_seconds: float


@contextmanager
def _counting_edit_work(counts: Dict[str, int], spent: Dict[str, float]):
    """Count, while the block runs, every component printed
    (``"printed"``: Filament ones through
    :func:`repro.core.fingerprint.format_component`, Calyx ones through
    ``CalyxComponent.__str__``), every plan resolved (``"plans"``: calls
    of :func:`repro.sim.engine._plan_for`) and every kernel chunk linked
    (``"chunks"``: a chunk is linked once, when it is built), and add up
    the seconds spent instantiating compiled kernels (``"instance"``)
    and compiling fused pieces (``"fusion"``).  The originals are
    restored on exit."""
    from ..calyx.ir import CalyxComponent
    from ..core import fingerprint
    from ..sim import codegen, engine

    program = codegen.CompiledKernelProgram
    originals = (fingerprint.format_component, CalyxComponent.__str__,
                 engine._plan_for, codegen._Chunk, program.scalar_instance,
                 codegen._compile_piece)

    def counting(name, function):
        def counted(*args):
            counts[name] += 1
            return function(*args)
        return counted

    def timing(name, function):
        def timed(*args):
            start = time.perf_counter()
            try:
                return function(*args)
            finally:
                spent[name] += time.perf_counter() - start
        return timed

    fingerprint.format_component = counting("printed", originals[0])
    CalyxComponent.__str__ = counting("printed", originals[1])
    engine._plan_for = counting("plans", originals[2])
    codegen._Chunk = counting("chunks", originals[3])
    program.scalar_instance = timing("instance", originals[4])
    codegen._compile_piece = timing("fusion", originals[5])
    try:
        yield
    finally:
        (fingerprint.format_component, CalyxComponent.__str__,
         engine._plan_for, codegen._Chunk, program.scalar_instance,
         codegen._compile_piece) = originals


def _calls_per_cycle(simulator) -> int:
    """The Python calls one cycle of ``simulator``'s kernel makes: the
    calls of a two-cycle run less those of a one-cycle run, so the
    entry's own calls cancel.  The kernel idles at X.  A profiler
    already installed is put back afterwards (and misses these runs)."""
    kernel = simulator._kernel

    def calls(cycles: int) -> int:
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            if event == "call":
                count += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            kernel.run_columns(cycles, {})
        finally:
            sys.setprofile(previous)
        return count

    return calls(2) - calls(1)


def _stores_per_cycle(simulator) -> int:
    """The slot stores one cycle of ``simulator``'s kernel executes (its
    ``STORE_SUBSCR`` instructions, counted with an opcode tracer): the
    stores of a two-cycle run less those of a one-cycle run, so the
    entry's own stores cancel.  The kernel idles at X.  A tracer already
    installed is put back afterwards (and misses these runs)."""
    kernel = simulator._kernel
    store = dis.opmap["STORE_SUBSCR"]

    def stores(cycles: int) -> int:
        count = 0

        def trace(frame, event, arg):
            nonlocal count
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
            if (event == "opcode"
                    and frame.f_code.co_code[frame.f_lasti] == store):
                count += 1
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            kernel.run_columns(cycles, {})
        finally:
            sys.settrace(previous)
        return count

    return stores(2) - stores(1)


def _first_fusion_seconds(depth: int) -> float:
    """The seconds the first leaf edit of a ``depth``-deep chain spends
    compiling fused pieces, from a cold kernel cache: the first build
    generates every chunk and the edit's build fuses the rest of the
    chain.  The depths of a sweep share their links' chunks, so only a
    cold start gives each depth its own figure."""
    from ..harness import harness_for
    from ..sim import codegen

    codegen.clear_kernel_cache()
    program, entrypoint = chain_program(
        depth, salt=next(_SWEEP_VALUES) & 0xFFFF)
    session = CompilationSession(program)

    def build() -> None:
        session.verilog(entrypoint)
        harness_for(program, entrypoint,
                    session=session)._fresh_simulator().prepare()

    build()
    edit_chain_leaf(program, next(_SWEEP_VALUES) & 0xFFFF)
    spent = dict.fromkeys(("instance", "fusion"), 0.0)
    with _counting_edit_work(dict.fromkeys(("printed", "plans", "chunks"),
                                           0), spent):
        build()
    return spent["fusion"]


def measure_edit_costs(depths: Sequence[int] = (16, 64, 256),
                       edits: int = 30) -> List[EditCost]:
    """The depth sweep: per depth, warm one chain design up (compile it to
    Verilog, build and prepare its compiled-tier harness simulator), then
    time ``edits`` in-place leaf edits, each followed by
    ``session.verilog``, ``harness_for`` and the harness's simulator
    build, and then that simulator's ``prepare()``, whose kernel instance
    is also timed alone.  The depths take turns, one edit each, so a drift
    in host speed lands on all of them.  A leaf edit leaves the rest of
    the chain's chunks cached, so each edit's kernel fuses the runs of
    segments around the leaf.  Last, each depth's one-time cost of
    compiling those pieces is measured from a cold kernel cache, which
    this clears."""
    from ..harness import harness_for

    designs = []
    for depth in depths:
        program, entrypoint = chain_program(
            depth, salt=next(_SWEEP_VALUES) & 0xFFFF)
        session = CompilationSession(program)
        session.verilog(entrypoint)
        harness_for(program, entrypoint,
                    session=session)._fresh_simulator().prepare()
        designs.append((program, entrypoint, session))
    seconds: List[List[Tuple[float, float, float]]] = [[] for _ in depths]
    counts = [dict.fromkeys(("printed", "plans", "chunks"), 0)
              for _ in depths]
    simulators: list = [None for _ in depths]
    for _ in range(edits):
        for index, (program, entrypoint, session) in enumerate(designs):
            edit_chain_leaf(program, next(_SWEEP_VALUES) & 0xFFFF)
            spent = dict.fromkeys(("instance", "fusion"), 0.0)
            with _counting_edit_work(counts[index], spent):
                start = time.perf_counter()
                session.verilog(entrypoint)
                simulator = harness_for(
                    program, entrypoint, session=session)._fresh_simulator()
                built = time.perf_counter()
                simulator.prepare()
                seconds[index].append((built - start,
                                       time.perf_counter() - built,
                                       spent["instance"]))
            simulators[index] = simulator
    fusion = list(map(_first_fusion_seconds, depths))
    return [EditCost(depth, edits,
                     statistics.median(build for build, _, _ in times),
                     count["printed"] / edits,
                     statistics.median(prepare for _, prepare, _ in times),
                     statistics.median(build + prepare
                                       for build, prepare, _ in times),
                     count["plans"] / edits, count["chunks"] / edits,
                     statistics.median(instance for _, _, instance in times),
                     _calls_per_cycle(simulator),
                     _stores_per_cycle(simulator), fused)
            for depth, times, count, fused, simulator in zip(
                depths, seconds, counts, fusion, simulators)]
