"""The generic cycle-accurate test harness of Section 7.1.

The harness drives a compiled design *exactly* as its timeline type
prescribes:

1. every input is asserted only during the cycles of its availability
   interval and is driven to X everywhere else — this is what distinguishes
   it from Aetherling's harness, which "always asserts all inputs for 9
   cycles" and therefore misses interface bugs;
2. transactions are pipelined: a new set of inputs starts every
   initiation-interval cycles (the event's delay);
3. every output is captured during the cycles of its availability interval
   and compared against a golden model.

Capture is columnar: a run keeps one column of captured values per output
port (:class:`CapturedRun`), and :meth:`CycleAccurateHarness.check` and the
fuzzing checks in :mod:`repro.harness.fuzz` compare those columns directly.
The per-transaction :class:`TransactionResult` objects are built only when
a caller indexes or iterates the run.

On top of the basic driver, :func:`audit_latency` reproduces the Table 1
methodology ("for designs with mismatched outputs, we change the latency
till we get the right answer"): it measures the cycle at which the expected
value actually appears and the number of cycles each input really has to be
held, and reports both next to the claimed interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..calyx.ir import CalyxProgram
from ..core.ast import Program
from ..core.errors import FilamentError, SimulationError
from ..core.session import CompilationSession
from ..sim.simulator import Simulator
from ..sim.values import Value, X, format_value, is_x
from .spec import InterfaceSpec, spec_from_signature

__all__ = [
    "Transaction",
    "TransactionResult",
    "CapturedRun",
    "HarnessReport",
    "CycleAccurateHarness",
    "harness_for",
    "audit_latency",
    "LatencyAudit",
]

#: A transaction maps each data input port to the value for that transaction.
Transaction = Dict[str, int]


@dataclass
class TransactionResult:
    """Captured outputs of one transaction."""

    index: int
    start_cycle: int
    inputs: Transaction
    outputs: Dict[str, Value] = field(default_factory=dict)

    def output(self, name: str) -> Value:
        return self.outputs.get(name, X)


class CapturedRun(Sequence[TransactionResult]):
    """The captured outputs of one transaction stream, one column per
    output port: ``columns[port][index]`` is what transaction ``index``
    produced on ``port`` in its capture cycle (``X`` where an X was
    captured).  ``starts[index]`` is that transaction's start cycle.

    As a read-only sequence it is the stream's :class:`TransactionResult`
    list.  The list is built on first item access and cached, so every
    access returns the same objects.  Each result's ``inputs`` is a copy of
    its transaction as it is at that first access."""

    def __init__(self, transactions: Sequence[Transaction],
                 starts: List[int], columns: Dict[str, List[Value]]) -> None:
        self.transactions = transactions
        self.starts = starts
        self.columns = columns
        self._results: Optional[List[TransactionResult]] = None

    def _built(self) -> List[TransactionResult]:
        if self._results is None:
            names = list(self.columns)
            rows = (zip(*self.columns.values()) if names else repeat(()))
            self._results = [
                TransactionResult(index, start, dict(transaction),
                                  dict(zip(names, row)))
                for index, (start, transaction, row)
                in enumerate(zip(self.starts, self.transactions, rows))]
        return self._results

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())


@dataclass
class HarnessReport:
    """The outcome of a harness run against expected values."""

    results: Sequence[TransactionResult]
    mismatches: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status}: {len(self.results)} transaction(s)"]
        lines.extend(self.mismatches)
        return "\n".join(lines)


class CycleAccurateHarness:
    """Drives one compiled design according to an :class:`InterfaceSpec`.

    ``mode`` selects the simulation engine tier (see
    :class:`~repro.sim.Simulator`); the default is the compiled-kernel tier,
    which automatically falls back to the scheduled interpreter for
    netlists codegen cannot handle, so harness semantics never change —
    only throughput does.
    """

    def __init__(self, calyx: CalyxProgram, spec: InterfaceSpec,
                 component: Optional[str] = None,
                 mode: str = "compiled") -> None:
        self.calyx = calyx
        self.spec = spec
        self.mode = mode
        self.component = component or calyx.entrypoint
        simulator_component = self.calyx.get(self.component)
        known = set(simulator_component.input_names())
        for port in spec.inputs:
            if port.name not in known:
                raise FilamentError(
                    f"harness spec drives unknown input {port.name!r} of "
                    f"{self.component}"
                )
        #: The compiled simulation engine, built once per harness; every run
        #: resets it to power-on state instead of recompiling the schedule.
        self._simulator: Optional[Simulator] = None

    def _fresh_simulator(self) -> Simulator:
        if self._simulator is None:
            self._simulator = Simulator(self.calyx, self.component,
                                        mode=self.mode)
        else:
            self._simulator.reset()
        return self._simulator

    # -- stimulus construction -----------------------------------------------

    def _schedule(self, transactions: Sequence[Transaction],
                  spacing: Optional[int] = None,
                  extra_cycles: int = 4) -> Tuple[List[Dict[str, Value]], List[int]]:
        """Build the per-cycle input dictionaries for a pipelined run.

        Returns the stimulus list and each transaction's start cycle.  Raises
        if two transactions would need to drive one input port in the same
        cycle with different values (which can only happen when the caller
        forces a spacing below the initiation interval).
        """
        spacing = spacing if spacing is not None else self.spec.initiation_interval
        starts = [index * spacing for index in range(len(transactions))]
        total = (starts[-1] if starts else 0) + self.spec.horizon() + extra_cycles

        # Every cycle starts from the idle template — interface ports 0, data
        # ports X so early/late reads are caught — and transactions overwrite
        # their windows.  The template row is *interned*: every cycle outside
        # a transaction window shares the one idle dict (the engines only
        # read stimulus rows), and a window cycle gets its own copy on first
        # write.  Long pipelined runs are mostly idle cycles, so this removes
        # the per-cycle dict copy that used to dominate lane scheduling.
        idle: Dict[str, Value] = {name: 0 for name in self.spec.interface_ports}
        for port in self.spec.inputs:
            idle[port.name] = X
        stimulus: List[Dict[str, Value]] = [idle] * total

        def writable(index: int) -> Dict[str, Value]:
            row = stimulus[index]
            if row is idle:
                row = dict(idle)
                stimulus[index] = row
            return row

        for start, transaction in zip(starts, transactions):
            for offset_port, cycle in self.spec.interface_ports.items():
                writable(start + cycle)[offset_port] = 1
            for port in self.spec.inputs:
                value = transaction.get(port.name)
                if value is None:
                    continue
                for cycle in port.cycles():
                    slot = writable(start + cycle)
                    existing = slot[port.name]
                    if existing is not X and existing != value:
                        raise SimulationError(
                            f"transactions overlap on input {port.name} at "
                            f"cycle {start + cycle}; spacing {spacing} is "
                            f"below the initiation interval"
                        )
                    slot[port.name] = value
        return stimulus, starts

    def _schedule_columns(self, transactions: Sequence[Transaction],
                          spacing: Optional[int] = None,
                          extra_cycles: int = 4
                          ) -> Tuple[int, Dict[str, Tuple[List[int],
                                                          bytearray]],
                                     List[int]]:
        """:meth:`_schedule` in columnar form for the native tier: one
        ``(values, xflags)`` column per driven input port instead of one
        dict per cycle.  Same windows, same idle semantics (interface ports
        0, data ports X), same overlap error."""
        spacing = (spacing if spacing is not None
                   else self.spec.initiation_interval)
        count = len(transactions)
        starts = [index * spacing for index in range(count)]
        total = ((starts[-1] if starts else 0) + self.spec.horizon()
                 + extra_cycles)
        columns: Dict[str, Tuple[List[int], bytearray]] = {}
        for name in self.spec.interface_ports:
            columns[name] = ([0] * total, bytearray(total))
        for port in self.spec.inputs:
            columns[port.name] = ([0] * total, bytearray(b"\x01" * total))
        if count:
            ones = [1] * count
            for offset_port, cycle in self.spec.interface_ports.items():
                values, _ = columns[offset_port]
                stop = cycle + count * spacing
                if spacing > 0:
                    values[cycle:stop:spacing] = ones
                else:
                    values[cycle] = 1
        for port in self.spec.inputs:
            values, xflags = columns[port.name]
            name = port.name
            column = [transaction.get(name) for transaction in transactions]
            # Windows of consecutive transactions are disjoint whenever the
            # hold fits inside the spacing, so each window cycle becomes
            # one strided bulk write; holes (excluded ports, X stimulus)
            # and overlapping windows take the checked per-cycle path.
            if (count and 0 < port.hold_cycles <= spacing
                    and None not in column and X not in column):
                zeros = bytes(count)
                for cycle in port.cycles():
                    stop = cycle + count * spacing
                    values[cycle:stop:spacing] = column
                    xflags[cycle:stop:spacing] = zeros
                continue
            for start, value in zip(starts, column):
                if value is None:
                    continue
                concrete = not is_x(value)
                for cycle in port.cycles():
                    index = start + cycle
                    if xflags[index]:
                        if concrete:
                            values[index] = value
                            xflags[index] = 0
                    elif not concrete or values[index] != value:
                        raise SimulationError(
                            f"transactions overlap on input {port.name} at "
                            f"cycle {index}; spacing {spacing} is "
                            f"below the initiation interval"
                        )
        return total, columns, starts

    # -- running ---------------------------------------------------------------

    def run(self, transactions: Sequence[Transaction],
            spacing: Optional[int] = None,
            extra_cycles: int = 4) -> CapturedRun:
        """Run the transactions back-to-back at the initiation interval and
        capture each one's outputs during their availability windows.

        The result is a :class:`CapturedRun`: one column per output port,
        read as the :class:`TransactionResult` list, which is built only
        when an item is first accessed.  When the simulator's native C
        tier is active the stimulus is built and executed columnar (one C
        call for the whole run) and each output column is one strided
        slice of the C output; otherwise the run goes through per-cycle
        dicts — trace-identical either way."""
        simulator = self._fresh_simulator()
        if simulator.native_active():
            total, columns, starts = self._schedule_columns(
                transactions, spacing, extra_cycles)
            out = simulator.run_columns(total, columns)
            if out is not None:
                return CapturedRun(transactions, starts,
                                   self._capture_columns(out, total, starts,
                                                         1, 0))
        stimulus, starts = self._schedule(transactions, spacing, extra_cycles)
        trace = simulator.run_batch(stimulus)
        return CapturedRun(transactions, starts, self._capture(trace, starts))

    def _capture_columns(self, out: Dict[str, object], total: int,
                         starts: List[int], n_lanes: int, lane: int
                         ) -> Dict[str, List[Value]]:
        """Each output port's column from the flat ``(values, xflags)``
        output of a native run, where cycle ``c`` of ``lane`` sits at flat
        index ``c * n_lanes + lane`` (``n_lanes`` is 1 for a scalar run).
        ``starts`` are evenly spaced, as :meth:`_schedule_columns` builds
        them, so a column is one strided slice; a capture cycle at or past
        the stream's own ``total`` cycles reads ``X``."""
        count = len(starts)
        spacing = starts[1] - starts[0] if count > 1 else 1
        last = starts[-1] if count else 0
        captured: Dict[str, List[Value]] = {}
        for port in self.spec.outputs:
            if port.name not in out:
                captured[port.name] = [X] * count
                continue
            values, xflags = out[port.name]
            offset = port.start
            if spacing > 0 and 0 <= offset and last + offset < total:
                first = offset * n_lanes + lane
                step = spacing * n_lanes
                window = slice(first, first + count * step, step)
                column: List[Value] = list(values[window])
                xs = xflags[window]
                if xs.count(0) < len(xs):
                    column = [X if x else value
                              for value, x in zip(column, xs)]
            else:
                # A zero or negative spacing cannot be one slice step, and
                # a window past the stream's end reads X: index every start.
                column = []
                for start in starts:
                    cycle = start + offset
                    flat = cycle * n_lanes + lane
                    column.append(X if cycle >= total or xflags[flat]
                                  else values[flat])
            captured[port.name] = column
        return captured

    def _capture(self, trace: List[Dict[str, Value]], starts: List[int]
                 ) -> Dict[str, List[Value]]:
        """Each output port's column from a per-cycle dict trace."""
        total = len(trace)
        captured: Dict[str, List[Value]] = {}
        for port in self.spec.outputs:
            name, offset = port.name, port.start
            captured[name] = [
                trace[start + offset].get(name, X)
                if start + offset < total else X
                for start in starts]
        return captured

    def run_lanes(self, transaction_streams: Sequence[Sequence[Transaction]],
                  spacing: Optional[int] = None,
                  extra_cycles: int = 4) -> List[CapturedRun]:
        """Run several *independent* transaction streams as one lane batch
        and capture each stream's outputs into a :class:`CapturedRun`.

        Every stream is pipelined internally exactly as :meth:`run` would
        pipeline it; the streams never interact.

        When the simulator's native lane entry is active the streams are
        scheduled columnar, merged into one lane-major-within-port buffer
        set, and executed in a single C call
        (:meth:`~repro.sim.engine.ScheduledEngine.run_lane_columns`), so a
        batch of short streams pays the per-call overhead once; each
        stream's columns are strided slices of the flat output.  Otherwise
        :meth:`~repro.sim.engine.ScheduledEngine.run_lanes` runs each
        stream on the simulator's own tier — trace-identical either way.
        """
        streams = [list(stream) for stream in transaction_streams]
        simulator = self._fresh_simulator()
        if streams and simulator.native_lanes_active():
            schedules = [self._schedule_columns(stream, spacing,
                                                extra_cycles)
                         for stream in streams]
            n_lanes = len(streams)
            total = max(lane_total for lane_total, _, _ in schedules)
            merged: Dict[str, Tuple[List[int], bytearray]] = {}
            for name in schedules[0][1]:
                values = [0] * (total * n_lanes)
                xflags = bytearray(b"\x01" * (total * n_lanes))
                for lane, (lane_total, columns, _) in enumerate(schedules):
                    lane_values, lane_xflags = columns[name]
                    stop = lane_total * n_lanes
                    values[lane:stop:n_lanes] = lane_values
                    xflags[lane:stop:n_lanes] = lane_xflags
                merged[name] = (values, xflags)
            out = simulator.run_lane_columns(total, n_lanes, merged)
            if out is not None:
                return [CapturedRun(stream, starts, self._capture_columns(
                            out, lane_total, starts, n_lanes, lane))
                        for lane, ((lane_total, _, starts), stream)
                        in enumerate(zip(schedules, streams))]
        schedules = [self._schedule(stream, spacing, extra_cycles)
                     for stream in streams]
        traces = simulator.run_lanes(
            [stimulus for stimulus, _ in schedules])
        return [CapturedRun(stream, starts, self._capture(trace, starts))
                for trace, (_, starts), stream
                in zip(traces, schedules, streams)]

    def trace(self, transactions: Sequence[Transaction],
              spacing: Optional[int] = None,
              extra_cycles: int = 4) -> List[Dict[str, Value]]:
        """The raw per-cycle output trace (used by waveform figures and by
        the latency audit)."""
        stimulus, _ = self._schedule(transactions, spacing, extra_cycles)
        return self._fresh_simulator().run_batch(stimulus)

    def check(self, transactions: Sequence[Transaction],
              golden: Callable[[Transaction], Dict[str, int]],
              spacing: Optional[int] = None) -> HarnessReport:
        """Run and compare every captured output against ``golden``; an
        expected name that is not an output of the design is a mismatch
        too."""
        results = self.run(transactions, spacing)
        report = HarnessReport(results)
        columns = results.columns
        for index, (start, transaction) in enumerate(
                zip(results.starts, transactions)):
            for name, want in golden(transaction).items():
                column = columns.get(name)
                if column is None:
                    report.mismatches.append(
                        f"transaction {index}: output {name} expected "
                        f"{want} but {self.spec.name} has no output named "
                        f"{name!r}")
                    continue
                got = column[index]
                if got is X or got != want:
                    report.mismatches.append(
                        f"transaction {index}: output {name} expected "
                        f"{want} but captured {format_value(got)} at cycle "
                        f"{start + self.spec.output(name).start}"
                    )
        return report


def harness_for(program: Program, component: str,
                calyx: Optional[CalyxProgram] = None,
                session: Optional[CompilationSession] = None,
                mode: str = "compiled") -> CycleAccurateHarness:
    """Compile ``component`` (unless a compiled program is supplied) and wrap
    it in a harness driven by its own timeline type.  Compilation routes
    through ``session`` when given, or the program's shared
    :class:`~repro.core.session.CompilationSession` otherwise, so repeated
    harnesses over one program hit the staged caches — and, since the
    session is incremental, editing a component between harnesses recompiles
    only that component and its transitive dependents (everything else,
    including content-identical programs compiled elsewhere in the process,
    is served from the digest-keyed compile cache).  ``mode`` selects the
    engine tier (compiled kernel by default, with automatic interpreter
    fallback)."""
    if calyx is None:
        session = session or CompilationSession.for_program(program)
        calyx = session.calyx(component)
    spec = spec_from_signature(program.get(component).signature)
    return CycleAccurateHarness(calyx, spec, component, mode=mode)


@dataclass
class LatencyAudit:
    """The result of auditing a claimed interface against reality."""

    reported_latency: int
    actual_latency: Optional[int]
    reported_hold: int
    required_hold: Optional[int]
    output: str

    @property
    def latency_correct(self) -> bool:
        return self.actual_latency == self.reported_latency

    @property
    def hold_correct(self) -> bool:
        return self.required_hold == self.reported_hold


def audit_latency(calyx: CalyxProgram, spec: InterfaceSpec,
                  transactions: Union[Transaction, Sequence[Transaction]],
                  expected: Union[Dict[str, int], Sequence[Dict[str, int]]],
                  max_latency: int = 64, max_hold: int = 16,
                  component: Optional[str] = None) -> LatencyAudit:
    """Reproduce the Table 1 methodology for one design.

    ``spec`` describes the *claimed* interface (e.g. what Aetherling's CLI
    reports); ``transactions`` is a warm-up stream whose tail is probed —
    ``expected`` gives the expected outputs for the last transaction (a
    single dict) or for the last several transactions (a list of dicts),
    and a candidate latency only counts when *every* probed transaction's
    output appears at that offset, which pins the latency down even when
    individual output values repeat.  The audit:

    1. drives the stream at the claimed initiation interval, with inputs held
       exactly as long as the claimed type says, and scans the output trace
       (from the last transaction's start cycle onwards) for the cycle at
       which the expected value actually appears; the offset from the start
       cycle is the *actual latency* (``None`` if it never shows up within
       ``max_latency`` cycles);
    2. if the expected value never appears, retries with progressively longer
       input holds to find the hold the design really requires — this is how
       the paper discovers that the 1/9-throughput conv2d needs its input for
       six cycles rather than one.
    """
    if isinstance(transactions, dict):
        transactions = [transactions]
    transactions = list(transactions)
    if isinstance(expected, dict):
        expected_tail: List[Dict[str, int]] = [expected]
    else:
        expected_tail = list(expected)
    output_name = next(iter(expected_tail[-1]))
    interval = spec.initiation_interval
    last_start = (len(transactions) - 1) * interval
    # Start cycles of the transactions the expectations refer to (the last
    # ``len(expected_tail)`` transactions of the stream).
    probe_starts = [last_start - interval * (len(expected_tail) - 1 - index)
                    for index in range(len(expected_tail))]

    def measure(hold: int) -> Optional[int]:
        candidate = spec.with_input_hold(hold)
        harness = CycleAccurateHarness(calyx, candidate, component)
        try:
            trace = harness.trace(transactions, extra_cycles=max_latency + 4)
        except SimulationError:
            # Holding the input longer than the initiation interval makes
            # consecutive transactions overlap; the design cannot need that.
            return None
        for latency in range(0, max_latency + 1):
            matches = True
            for start, wants in zip(probe_starts, expected_tail):
                cycle = start + latency
                if cycle >= len(trace):
                    matches = False
                    break
                for name, want in wants.items():
                    value = trace[cycle].get(name, X)
                    if is_x(value) or value != want:
                        matches = False
                        break
                if not matches:
                    break
            if matches:
                return latency
        return None

    reported_hold = spec.inputs[0].hold_cycles if spec.inputs else 1
    actual = measure(reported_hold)
    required_hold: Optional[int] = reported_hold if actual is not None else None
    if actual is None:
        for hold in range(reported_hold + 1, max_hold + 1):
            actual = measure(hold)
            if actual is not None:
                required_hold = hold
                break
    return LatencyAudit(
        reported_latency=spec.latency(),
        actual_latency=actual,
        reported_hold=reported_hold,
        required_hold=required_hold,
        output=output_name,
    )
