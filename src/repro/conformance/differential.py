"""N-way differential execution of generated programs.

One generated program is pushed through every oracle the repository has,
under identical random stimulus, and all answers must agree:

1. **type checker** — the program must be accepted (it is well typed by
   construction);
2. **log semantics** (:mod:`repro.core.semantics`) — the reference
   interpretation must yield a well-formed, safely-pipelined log (the
   executable soundness statement of Section 6);
3. **Calyx well-formedness** — the lowered program must pass
   :mod:`repro.calyx.wellformed`;
4. **print → re-parse round-trip** — the component printed by
   :mod:`repro.core.printer` must re-parse to a structurally identical AST,
   and the re-parsed program must produce the *same execution trace*;
5. **engines** — the scheduled engine (``mode="auto"``), the reference
   fixpoint engine (``mode="fixpoint"``), the generated-kernel engine
   (``mode="compiled"``, :mod:`repro.sim.codegen`) and the native C engine
   (``mode="native"``, :mod:`repro.sim.native`; its tier chain falls back
   to the compiled kernel with a recorded reason when the netlist is
   ineligible or the host has no C compiler) must produce cycle-identical
   traces, including X propagation (the harness drives X outside every
   availability window);
6. **native lanes vs scalar** — ``lanes`` independently seeded stimulus
   streams run as one lane batch
   (:meth:`~repro.sim.engine.ScheduledEngine.run_lanes`) of a single
   ``mode="native"`` engine — one call into the **native lane entry**
   (``k_run_lanes`` in :mod:`repro.sim.native`), or N scalar runs when the
   entry is unavailable — and every lane's trace must be bit-identical
   (values and X planes) to a scalar run of that stream, with the
   lane-path outcome (``native_lanes`` / ``native_lanes_fallback``)
   recorded in the coverage ledger;
7. **golden model** — every captured transaction output must equal the
   generator's exact Python evaluation of the dataflow spec;
8. **incremental recompilation** — an in-place mutation recompiled through
   the session must be byte-identical to a from-scratch compile, and a
   ``mode="compiled"`` engine of the incremental Calyx — its plans and
   kernel chunks warm from the pre-edit matrix — must trace like the
   from-scratch Calyx under ``mode="fixpoint"`` (values, X planes and
   conflict errors byte-for-byte);
9. **Verilog re-import** (:mod:`repro.core.lower.verilog_frontend`) — the
   emitted Verilog parsed back into a netlist must trace identically
   (values, X planes, conflict errors byte-for-byte) to the engine matrix.

Custom engines can be injected through the ``engines`` parameter (a mapping
from name to ``factory(calyx, entrypoint)``), which is how the test suite
verifies that a deliberately broken engine *is* caught and shrunk.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..calyx.wellformed import check_program as calyx_wellformed
from ..core.errors import FilamentError, SimulationError
from ..core.lower.verilog_frontend import roundtrip_divergences
from ..core.parser import parse_component
from ..core.semantics import component_log
from ..core.session import CompilationSession
from ..core.stdlib import with_stdlib
from ..core.typecheck import check_program
from ..harness.driver import harness_for
from ..harness.fuzz import random_transactions
from ..sim.engine import ScheduledEngine
from ..sim.simulator import Simulator
from ..sim.values import X, format_value, is_x
from .coverage import CoverageRecord
from .generator import (
    GeneratedProgram,
    build,
    mutate_spec,
    output_input_cones,
)

__all__ = [
    "ConformanceResult",
    "EngineFactory",
    "default_engines",
    "run_conformance",
    "traces_equal",
]

#: Builds an engine for a compiled program; must expose ``run_batch``.
EngineFactory = Callable[[object, str], object]

#: How many per-engine trace mismatches are reported before truncating.
_MAX_REPORTED = 5


def default_engines() -> Dict[str, EngineFactory]:
    """The standard four-engine matrix: the levelized scheduled engine,
    the reference sweep-loop (fixpoint) engine, the generated-kernel
    (compiled) engine, and the native C engine — every generated program
    must trace identically across all of them.  The native engine is
    always included: on hosts without a C compiler (or for ineligible
    netlists) it transparently rides the rest of the tier chain, which is
    itself part of the contract under test, and the coverage ledger
    records which path actually ran."""
    return {
        "scheduled": lambda calyx, entry: Simulator(calyx, entry, mode="auto"),
        "fixpoint": lambda calyx, entry: Simulator(calyx, entry, mode="fixpoint"),
        "compiled": lambda calyx, entry: Simulator(calyx, entry, mode="compiled"),
        "native": lambda calyx, entry: Simulator(calyx, entry, mode="native"),
    }


#: The engine set repro commands may omit (it is the CLI default).
_DEFAULT_ENGINE_NAMES = ("compiled", "fixpoint", "native", "scheduled")


@dataclass
class ConformanceResult:
    """The verdict of one N-way differential run."""

    name: str
    seed: Optional[int]
    transactions: int
    stimulus_seed: int
    engines: List[str] = field(default_factory=list)
    divergences: List[str] = field(default_factory=list)
    coverage: Optional[CoverageRecord] = None
    #: The engines requested for the matrix (without the synthetic
    #: ``reparsed``/``native-lanes`` entries appended during the run) —
    #: what a repro command must pass back via ``--engine``.
    matrix_engines: List[str] = field(default_factory=list)
    lanes: int = 1
    roundtrip: bool = True
    incremental: bool = True
    reimport: bool = True
    x_probability: float = 0.0
    plan_digest: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.divergences

    def repro_command(self, replay: Optional[str] = None) -> Optional[str]:
        """A one-line CLI invocation that reruns exactly this matrix cell:
        ``--replay <replay>`` when the program is the corpus entry in the
        file ``replay``, ``--start <seed> --seeds 1`` otherwise.

        ``None`` when neither is known.  The steering-plan digest rides
        along as ``--plan plan-<digest>.json`` — the file the steered run
        saved."""
        if replay is not None:
            parts = ["--replay", shlex.quote(replay)]
        elif self.seed is not None:
            parts = ["--start", str(self.seed), "--seeds", "1"]
        else:
            return None
        parts = ["python", "-m", "repro.conformance", *parts,
                 "--transactions", str(self.transactions),
                 "--lanes", str(self.lanes)]
        if tuple(sorted(self.matrix_engines)) != _DEFAULT_ENGINE_NAMES:
            for engine in sorted(self.matrix_engines):
                parts += ["--engine", engine]
        if not self.roundtrip:
            parts.append("--no-roundtrip")
        if not self.incremental:
            parts.append("--no-incremental")
        if not self.reimport:
            parts.append("--no-reimport")
        if self.x_probability:
            parts += ["--x-stimulus", repr(self.x_probability)]
        if self.plan_digest:
            parts += ["--plan", f"plan-{self.plan_digest}.json"]
        return " ".join(parts)

    def __str__(self) -> str:
        status = "OK" if self.passed else "DIVERGE"
        lines = [f"{status} {self.name} (stimulus seed {self.stimulus_seed}, "
                 f"{self.transactions} transaction(s), engines: "
                 f"{', '.join(self.engines)})"]
        lines.extend(self.divergences[:20])
        if len(self.divergences) > 20:
            lines.append(f"... and {len(self.divergences) - 20} more")
        if not self.passed:
            command = self.repro_command()
            if command:
                lines.append(f"repro: {command}")
        return "\n".join(lines)


def traces_equal(left: Sequence[dict], right: Sequence[dict]) -> bool:
    """Cycle-by-cycle trace equality, X matching X."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if set(a) != set(b):
            return False
        for name in a:
            va, vb = a[name], b[name]
            if is_x(va) != is_x(vb) or (not is_x(va) and va != vb):
                return False
    return True


def _compare_traces(reference_name: str, reference: List[dict],
                    candidate_name: str, candidate: List[dict],
                    divergences: List[str]) -> None:
    if len(reference) != len(candidate):
        divergences.append(
            f"engine {candidate_name}: trace length {len(candidate)} != "
            f"{reference_name}'s {len(reference)}"
        )
        return
    reported = 0
    for cycle, (want, got) in enumerate(zip(reference, candidate)):
        for port in sorted(set(want) | set(got)):
            va, vb = want.get(port, X), got.get(port, X)
            same = (is_x(va) and is_x(vb)) or (
                not is_x(va) and not is_x(vb) and va == vb)
            if not same:
                divergences.append(
                    f"engine {candidate_name} vs {reference_name}: cycle "
                    f"{cycle} port {port}: {format_value(vb)} != "
                    f"{format_value(va)}"
                )
                reported += 1
                if reported >= _MAX_REPORTED:
                    divergences.append(
                        f"engine {candidate_name}: further mismatches "
                        f"suppressed")
                    return


def _run_engines(engines: Dict[str, Callable[[], object]],
                 stimulus: List[dict], divergences: List[str]):
    """The engine matrix: run ``stimulus`` through the engine each
    ``engines[name]()`` builds, in order, then compare every trace against
    the reference — ``fixpoint``, else the first name that ran.  Build and
    run errors and trace mismatches land in ``divergences``.  Returns the
    traces, the built engines and the reference name (``None`` when no
    engine ran)."""
    traces: Dict[str, List[dict]] = {}
    built: Dict[str, object] = {}
    for name, make in engines.items():
        try:
            built[name] = make()
            traces[name] = built[name].run_batch(stimulus)
        except SimulationError as error:
            divergences.append(f"engine {name}: {error}")
    reference_name = "fixpoint" if "fixpoint" in traces else (
        sorted(traces)[0] if traces else None)
    for name in sorted(traces):
        if name != reference_name:
            _compare_traces(reference_name, traces[reference_name], name,
                            traces[name], divergences)
    return traces, built, reference_name


def _apply_x_drops(stream: List[dict], x_probability: float,
                   tag: object) -> List[Set[str]]:
    """X-rich stimulus: seeded per-transaction port drops.

    A dropped port is simply absent from the transaction, so the harness
    leaves it X *inside* its availability window — strictly richer than the
    baseline X outside every window.  Returns the per-transaction dropped
    sets (the golden check skips outputs whose input cone touches one)."""
    rng = random.Random(f"repro-x:{tag}")
    dropped: List[Set[str]] = []
    for transaction in stream:
        drop = {name for name in sorted(transaction)
                if rng.random() < x_probability}
        for name in drop:
            del transaction[name]
        dropped.append(drop)
    return dropped


def run_conformance(generated: GeneratedProgram,
                    transactions: int = 12,
                    seed: int = 0,
                    engines: Optional[Dict[str, EngineFactory]] = None,
                    roundtrip: bool = True,
                    lanes: int = 4,
                    incremental: bool = True,
                    reimport: bool = True,
                    x_probability: float = 0.0,
                    plan_digest: Optional[str] = None) -> ConformanceResult:
    """Run the full N-way differential matrix over one generated program.

    ``seed`` seeds the *stimulus* stream (independent of the program seed)
    so interleaved runs stay reproducible; it is recorded in the result.
    ``lanes`` independently seeded streams (``seed``, ``seed + 1``, …) are
    additionally run as one lane batch on a native engine and each lane is
    checked bit-for-bit against its scalar trace; ``lanes=1`` disables the
    lane way.  ``incremental`` enables the incremental-recompilation way:
    a seeded, well-typedness-preserving mutation is
    applied to the component *in place* and the incrementally recompiled
    Calyx/Verilog must be byte-identical to a from-scratch compile of the
    mutated program in a session of its own (sessions share no artifact,
    so the comparison is genuinely two-sided).  ``x_probability``
    drops each stimulus port from each transaction with that (seeded)
    probability, driving X *inside* availability windows; the golden check
    conservatively skips outputs whose input cone touches a dropped port,
    while every engine-vs-engine way still applies.  ``reimport`` enables
    the Verilog-loop way: the emitted Verilog is parsed back into a netlist
    (:mod:`repro.core.lower.verilog_frontend`) whose trace must be
    byte-identical to the engine matrix's reference trace.  ``plan_digest``
    (informational) records which steering plan chose this seed.
    """
    engines = dict(engines) if engines is not None else default_engines()
    spec = generated.spec
    result = ConformanceResult(
        name=spec.name, seed=None, transactions=transactions,
        stimulus_seed=seed, engines=sorted(engines),
        matrix_engines=sorted(engines), lanes=lanes, roundtrip=roundtrip,
        incremental=incremental, reimport=reimport,
        x_probability=x_probability,
        plan_digest=plan_digest,
    )
    coverage = CoverageRecord.from_program(generated)
    coverage.transactions = transactions
    coverage.plan_digest = plan_digest
    result.coverage = coverage
    divergences = result.divergences

    # 1. The type checker must accept the program.
    try:
        checked = check_program(generated.program)
    except FilamentError as error:
        divergences.append(f"typecheck: {error}")
        coverage.divergences = len(divergences)
        return result

    # 2. The log semantics must certify well-formedness + safe pipelining.
    try:
        log = component_log(generated.component, generated.program,
                            checked.get(spec.name))
        if not log.well_formed():
            divergences.append("semantics: log is not well formed")
        if not log.safely_pipelined(spec.ii):
            divergences.append(
                f"semantics: log is not safely pipelined at II={spec.ii}")
    except FilamentError as error:
        divergences.append(f"semantics: {error}")

    # 3. Lowering to Calyx + structural well-formedness.
    session = CompilationSession(generated.program, checked=checked)
    try:
        calyx = session.calyx(spec.name)
    except FilamentError as error:
        divergences.append(f"lowering: {error}")
        coverage.divergences = len(divergences)
        return result
    for problem in calyx_wellformed(calyx):
        divergences.append(f"calyx-wellformed: {problem}")

    # 4. Print -> re-parse round-trip (AST equality now; trace equality in
    #    step 5 via the extra engine).
    reparsed_calyx = None
    if roundtrip:
        try:
            text = generated.text()
            reparsed = parse_component(text)
            if reparsed != generated.component:
                divergences.append(
                    "roundtrip: re-parsed component differs structurally "
                    "from the original")
            else:
                # Hierarchy children / black-box signatures must ride along
                # or the re-parsed top has nothing to instantiate.
                reparsed_program = with_stdlib(
                    components=[*generated.support, reparsed])
                reparsed_calyx = CompilationSession(
                    reparsed_program).calyx(spec.name)
        except FilamentError as error:
            divergences.append(f"roundtrip: {error}")

    # 5. Identical traces from every engine under identical stimulus.
    harness = harness_for(generated.program, spec.name, calyx=calyx)
    stream = random_transactions(harness, transactions, seed=seed)
    dropped: List[Set[str]] = [set() for _ in stream]
    if x_probability > 0:
        dropped = _apply_x_drops(stream, x_probability, seed)
        coverage.x_transactions = sum(1 for drop in dropped if drop)
    stimulus, starts = harness._schedule(stream)
    coverage.stimulus_has_x = any(
        any(is_x(value) for value in cycle.values()) for cycle in stimulus)

    matrix = {name: partial(engines[name], calyx, spec.name)
              for name in sorted(engines)}
    if reparsed_calyx is not None:
        matrix["reparsed"] = partial(Simulator, reparsed_calyx, spec.name,
                                     mode="auto")
    traces, built_engines, reference_name = _run_engines(
        matrix, stimulus, divergences)
    if "reparsed" in traces:
        result.engines = result.engines + ["reparsed"]

    # Engine-path coverage comes from the scheduled engine when present.
    scheduled_engine = built_engines.get("scheduled")
    if isinstance(scheduled_engine, ScheduledEngine):
        coverage.scheduled = scheduled_engine.scheduled_everywhere()
        coverage.fallback_reasons = scheduled_engine.fallback_reasons()
        coverage.fallback_components = sorted(coverage.fallback_reasons)
    compiled_engine = built_engines.get("compiled")
    if isinstance(compiled_engine, ScheduledEngine):
        coverage.kernel = compiled_engine.uses_kernel()
        coverage.kernel_fallback = compiled_engine.kernel_fallback_reason
    native_engine = built_engines.get("native")
    if isinstance(native_engine, ScheduledEngine):
        coverage.native = native_engine.uses_native()
        coverage.native_fallback = native_engine.native_fallback_reason

    # 6. Lane batches must be bit-identical to scalar runs: the original
    #    stimulus plus ``lanes - 1`` freshly seeded streams go through ONE
    #    native engine's run_lanes (one k_run_lanes call when the host can
    #    build the C kernel), and each lane is compared against its own
    #    scalar trace.  The lane-path outcome is recorded either way so the
    #    ledger distinguishes lane-native from fallback runs;
    #    ``coverage.lanes`` only reports a lane width when the batch ran.
    coverage.lanes = 1
    if lanes > 1 and reference_name is not None:
        streams = [stimulus]
        for lane in range(1, lanes):
            extra = random_transactions(harness, transactions,
                                        seed=seed + lane)
            if x_probability > 0:
                _apply_x_drops(extra, x_probability, f"{seed}+{lane}")
            streams.append(harness._schedule(extra)[0])
        scalar_engine = Simulator(calyx, spec.name, mode="auto")
        scalar_traces: Optional[List[List[dict]]] = []
        try:
            for lane, lane_stimulus in enumerate(streams):
                if lane == 0:
                    scalar_traces.append(traces[reference_name])
                else:
                    scalar_engine.reset()
                    scalar_traces.append(
                        scalar_engine.run_batch(lane_stimulus))
        except SimulationError:
            # The extra streams hit a conflict even scalar; the lane batch
            # below raises (and records) the same error.
            scalar_traces = None
        lane_engine = Simulator(calyx, spec.name, mode="native")
        try:
            lane_traces = lane_engine.run_lanes(streams)
        except SimulationError as error:
            divergences.append(f"engine native-lanes: {error}")
        else:
            coverage.lanes = lanes
            coverage.native_lanes = lane_engine.uses_native_lanes()
            coverage.native_lanes_fallback = (
                lane_engine.native_fallback_reason)
            if coverage.native_lanes:
                result.engines = result.engines + ["native-lanes"]
            if scalar_traces is not None:
                for lane in range(len(streams)):
                    _compare_traces(f"scalar lane {lane}",
                                    scalar_traces[lane],
                                    f"native-lanes[{lane}]",
                                    lane_traces[lane], divergences)

    # 7. Captured outputs must match the exact golden model.  Outputs whose
    #    input cone touches an X-dropped port have no defined golden value
    #    and are skipped (the engine-vs-engine ways above still cover them).
    if reference_name is not None:
        reference = traces[reference_name]
        output_ports = harness.spec.outputs
        cones = output_input_cones(spec) if any(dropped) else {}
        reported = 0
        for index, (start, transaction) in enumerate(zip(starts, stream)):
            expected = generated.golden(transaction)
            for port in output_ports:
                if dropped[index] and (
                        cones.get(port.name, frozenset()) & dropped[index]):
                    continue
                capture = start + port.start
                got = reference[capture].get(port.name, X) \
                    if capture < len(reference) else X
                want = expected[port.name]
                if is_x(got) or got != want:
                    divergences.append(
                        f"golden: transaction {index} output {port.name} "
                        f"expected {want} got {format_value(got)} at cycle "
                        f"{capture}"
                    )
                    reported += 1
                    if reported >= _MAX_REPORTED:
                        divergences.append("golden: further mismatches "
                                           "suppressed")
                        break
            if reported >= _MAX_REPORTED:
                break

    # 8. Incremental recompilation: mutate one component in place, recompile
    #    through the same session, and the artifacts must be byte-identical
    #    to a from-scratch compile of the mutated program; the incrementally
    #    rebuilt kernel must trace like the from-scratch reference.
    if incremental:
        _check_incremental(spec, seed, transactions, divergences, coverage)

    # 9. The Verilog loop: emit -> re-import -> the re-imported netlist's
    #    trace (values, X planes, conflict errors byte-for-byte) must be
    #    identical to the engine matrix's reference trace.
    if reimport and reference_name is not None:
        problems = roundtrip_divergences(calyx, spec.name, stimulus,
                                         reference=traces[reference_name])
        coverage.verilog_reimport = not problems
        if not problems:
            result.engines = result.engines + ["reimported"]
        divergences.extend(problems)

    coverage.divergences = len(divergences)
    return result


def _check_incremental(spec, seed: int, transactions: int,
                       divergences: List[str],
                       coverage: CoverageRecord) -> None:
    """The incremental-recompilation differential way (step 8)."""
    mutation = mutate_spec(spec, seed)
    if mutation is None:
        return
    mutated_spec, mutation_kind = mutation
    coverage.incremental = True
    coverage.incremental_mutation = mutation_kind
    try:
        base = build(spec)
        session = CompilationSession(base.program)
        session.verilog(spec.name)  # prime the session's artifacts

        # Splice the mutated definition into the *same* component object —
        # an in-place edit, exactly what the fingerprint layer must catch.
        mutated = build(mutated_spec)
        base.component.signature = mutated.component.signature
        base.component.body[:] = mutated.component.body

        incremental_calyx = session.calyx(spec.name)
        incremental_verilog = session.verilog(spec.name)

        # The donor build doubles as the from-scratch referee (its own
        # component object was never compiled or spliced into).
        scratch = CompilationSession(mutated.program)
        scratch_calyx = scratch.calyx(spec.name)
        scratch_verilog = scratch.verilog(spec.name)
    except FilamentError as error:
        divergences.append(f"incremental: {mutation_kind} mutation failed "
                           f"to compile: {error}")
        return
    if str(incremental_calyx) != str(scratch_calyx):
        divergences.append(
            f"incremental: Calyx after a {mutation_kind} mutation differs "
            f"from a from-scratch compile")
    if incremental_verilog != scratch_verilog:
        divergences.append(
            f"incremental: Verilog after a {mutation_kind} mutation differs "
            f"from a from-scratch compile")

    # The incrementally rebuilt kernel: every component the edit left alone
    # reuses the plan and kernel chunk the pre-edit matrix built, so a stale
    # one traces differently from the from-scratch reference.
    harness = harness_for(mutated.program, spec.name, calyx=scratch_calyx)
    stimulus, _ = harness._schedule(
        random_transactions(harness, transactions, seed=seed))
    outcomes = []
    for calyx, mode in ((scratch_calyx, "fixpoint"),
                        (incremental_calyx, "compiled")):
        try:
            outcomes.append((Simulator(calyx, spec.name, mode=mode)
                             .run_batch(stimulus), None))
        except SimulationError as error:
            outcomes.append((None, str(error)))
    (reference, reference_error), (trace, error) = outcomes
    if reference_error is not None or error is not None:
        if reference_error != error:
            divergences.append(
                f"incremental: conflict/error mismatch after a "
                f"{mutation_kind} mutation: from-scratch fixpoint raised "
                f"{reference_error!r}, incremental compiled raised "
                f"{error!r}")
        return
    problems: List[str] = []
    _compare_traces("from-scratch fixpoint", reference,
                    "incremental compiled", trace, problems)
    divergences.extend(f"incremental: {problem}" for problem in problems)
