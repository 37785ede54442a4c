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

The harness works in columns on every simulation tier.  A run reads each
input port's values out of the transaction dicts once, and one scheduler
(:meth:`CycleAccurateHarness._schedule_columns`) writes every stream, one
lane each (a scalar run is one lane), into one flat lane-major stimulus
column per port; ports up to 64 bits are ``array('Q')`` buffers, so the
native tier copies them whole.  The simulator's columnar entries run the
schedule, and one capture (:meth:`CycleAccurateHarness._capture_columns`)
slices each output port's column out of the result.  A run keeps one
column of captured values per output port (:class:`CapturedRun`), and
:meth:`CycleAccurateHarness.check` and the fuzzing checks in
:mod:`repro.harness.fuzz` compare those columns directly.  The
per-transaction :class:`TransactionResult` objects are built only when a
caller indexes or iterates the run.

On top of the basic driver, :func:`audit_latency` reproduces the Table 1
methodology ("for designs with mismatched outputs, we change the latency
till we get the right answer"): it measures the cycle at which the expected
value actually appears and the number of cycles each input really has to be
held, and reports both next to the claimed interface.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..calyx.ir import CalyxProgram
from ..core.ast import Program
from ..core.errors import FilamentError, SimulationError
from ..core.session import CompilationSession
from ..sim.engine import Column, columns_to_rows
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

#: A lane-major schedule: ``(total, columns, lengths, starts)`` (see
#: :meth:`CycleAccurateHarness._schedule_columns`).
Schedule = Tuple[int, Dict[str, Column], List[int], List[List[int]]]


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
        """The schedule of one stream as one input dict per cycle (every
        row its own dict), plus each transaction's start cycle."""
        total, columns, _, starts = self._schedule_streams(
            [transactions], spacing, extra_cycles)
        return columns_to_rows(columns, total), starts[0]

    def _schedule_streams(self, streams: Sequence[Sequence[Transaction]],
                          spacing: Optional[int] = None,
                          extra_cycles: int = 4) -> Schedule:
        """:meth:`_schedule_columns` of transaction dict streams, one lane
        per stream.  Each input port's values are read out of a stream's
        dicts once; a transaction that lacks the port leaves its window
        undriven."""
        values: Dict[str, List[List[Optional[Value]]]] = {}
        for port in self.spec.inputs:
            name = port.name
            value_of = itemgetter(name)
            lanes = values[name] = []
            for stream in streams:
                try:
                    lanes.append(list(map(value_of, stream)))
                except KeyError:
                    lanes.append([transaction.get(name)
                                  for transaction in stream])
        return self._schedule_columns(
            values, [len(stream) for stream in streams], spacing,
            extra_cycles)

    def _schedule_columns(self,
                          values: Dict[str, Sequence[Sequence[
                              Optional[Value]]]],
                          counts: Sequence[int],
                          spacing: Optional[int] = None,
                          extra_cycles: int = 4) -> Schedule:
        """The stimulus of ``len(counts)`` independent pipelined streams
        as one lane-major schedule: ``(total, columns, lengths, starts)``.
        A scalar run is one lane.

        Lane ``l`` holds ``counts[l]`` transactions, and ``values[port][l]``
        lists their values on input ``port`` (``None`` leaves a window
        undriven, ``X`` drives X).  Transaction ``k`` of every lane starts
        at cycle ``k * spacing`` (the initiation interval by default):
        ``starts[l]`` holds lane ``l``'s start cycles, the lane lasts
        ``lengths[l]`` cycles and ``total`` is the longest lane.
        ``columns`` holds one flat ``(values, xflags)`` column of ``total *
        len(counts)`` entries per interface and input port, cycle ``c`` of
        lane ``l`` at ``c * len(counts) + l``: interface ports are 0 except
        at each transaction's offset, and every input is X except inside
        its availability window, where it carries its transaction's value.
        Entries past a lane's own length are never run.

        Columns of ports up to 64 bits start as ``array('Q')`` buffers,
        which the native tier copies whole.  A lane whose values do not
        convert (a hole, an X, a negative value or one of 2**64 or more)
        or whose windows overlap turns its port's column into a list.

        Two transactions that drive one input with different values in the
        same cycle (only possible when ``spacing`` is below the initiation
        interval) raise ``transactions overlap on input <port> at cycle
        <c>; ...``, where ``c`` counts from the start of the lane.  Lanes
        are walked in order, inputs in spec order within a lane and
        transactions in order within an input; the first collision met is
        the one reported, the same one a run of that lane alone raises."""
        spacing = (spacing if spacing is not None
                   else self.spec.initiation_interval)
        n_lanes = len(counts)
        most = max(counts, default=0)
        longest = (list(range(0, most * spacing, spacing)) if spacing
                   else [0] * most)
        starts = [longest[:count] for count in counts]
        horizon = self.spec.horizon() + extra_cycles
        lengths = [(lane[-1] if lane else 0) + horizon for lane in starts]
        total = max(lengths, default=0)
        size = total * n_lanes
        step = spacing * n_lanes
        columns: Dict[str, Column] = {}
        for name, offset in self.spec.interface_ports.items():
            pulses = array("Q", bytes(8 * size))
            for lane, count in enumerate(counts):
                first = offset * n_lanes + lane
                if count and spacing > 0:
                    pulses[first:first + count * step:step] = (
                        array("Q", [1]) * count)
                elif count:
                    pulses[first] = 1
            columns[name] = (pulses, bytearray(size))
        for port in self.spec.inputs:
            columns[port.name] = (
                array("Q", bytes(8 * size)) if port.width <= 64
                else [0] * size, bytearray(b"\x01") * size)
        # Windows of consecutive transactions are disjoint whenever the
        # hold fits inside the spacing, so each window cycle becomes one
        # strided bulk write; holes, X stimulus and overlapping windows
        # take the checked per-cycle path.
        windows = [(port.name, port.cycles(),
                    0 < port.hold_cycles <= spacing)
                   for port in self.spec.inputs]
        for lane, count in enumerate(counts):
            if not count:
                continue
            zeros = bytes(count)
            for name, cycles, bulk in windows:
                held, xflags = columns[name]
                column = values[name][lane]
                if bulk and type(held) is array:
                    try:
                        column = array("Q", column)
                    except (TypeError, OverflowError):
                        pass  # a hole, an X, a negative or a wider value
                if type(held) is array and type(column) is not array:
                    held = list(held)
                    columns[name] = (held, xflags)
                if bulk and (type(column) is array
                             or (None not in column and X not in column)):
                    for cycle in cycles:
                        first = cycle * n_lanes + lane
                        stop = first + count * step
                        held[first:stop:step] = column
                        xflags[first:stop:step] = zeros
                    continue
                for start, value in zip(starts[lane], column):
                    if value is None:
                        continue
                    concrete = not is_x(value)
                    for cycle in cycles:
                        index = start + cycle
                        flat = index * n_lanes + lane
                        if xflags[flat]:
                            if concrete:
                                held[flat] = value
                                xflags[flat] = 0
                        elif not concrete or held[flat] != value:
                            raise SimulationError(
                                f"transactions overlap on input {name} at "
                                f"cycle {index}; spacing {spacing} is "
                                f"below the initiation interval"
                            )
        return total, columns, lengths, starts

    # -- running ---------------------------------------------------------------

    def run(self, transactions: Sequence[Transaction],
            spacing: Optional[int] = None,
            extra_cycles: int = 4) -> CapturedRun:
        """Run the transactions back-to-back at the initiation interval and
        capture each one's outputs during their availability windows.

        The result is a :class:`CapturedRun`: one column per output port,
        read as the :class:`TransactionResult` list, which is built only
        when an item is first accessed.  The stimulus is scheduled as
        columns, run through the simulator's columnar entry on whatever
        tier it runs, and each output column is one strided slice of the
        output."""
        total, columns, _, (starts,) = self._schedule_streams(
            [transactions], spacing, extra_cycles)
        out = self._fresh_simulator().run_columns(total, columns)
        return CapturedRun(transactions, starts,
                           self._capture_columns(out, total, starts, 1, 0))

    def _capture_columns(self, out: Dict[str, Column], total: int,
                         starts: List[int], n_lanes: int, lane: int
                         ) -> Dict[str, List[Value]]:
        """Each output port's column from the flat ``(values, xflags)``
        output of a columnar run, where cycle ``c`` of ``lane`` sits at
        flat index ``c * n_lanes + lane`` (``n_lanes`` is 1 for a scalar
        run).  ``starts`` are evenly spaced, as :meth:`_schedule_columns`
        builds them, so a column is one strided slice; a capture cycle at
        or past the stream's own ``total`` cycles reads ``X``."""
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

    def run_lanes(self, transaction_streams: Sequence[Sequence[Transaction]],
                  spacing: Optional[int] = None,
                  extra_cycles: int = 4) -> List[CapturedRun]:
        """Run several *independent* transaction streams as one lane batch
        and capture each stream's outputs into a :class:`CapturedRun`.

        Every stream is pipelined internally exactly as :meth:`run` would
        pipeline it; the streams never interact.  All streams are scheduled
        at once into one lane-major buffer set, one lane per stream, and
        run through the simulator's lane entry
        (:meth:`~repro.sim.engine.ScheduledEngine.run_lane_columns`; one C
        call on the native tier, so a batch of short streams pays the
        per-call overhead once), and each stream's columns are strided
        slices of the flat output."""
        streams = [list(stream) for stream in transaction_streams]
        total, columns, lengths, starts = self._schedule_streams(
            streams, spacing, extra_cycles)
        n_lanes = len(streams)
        out = self._fresh_simulator().run_lane_columns(
            total, n_lanes, columns, lengths)
        return [CapturedRun(stream, lane_starts, self._capture_columns(
                    out, length, lane_starts, n_lanes, lane))
                for lane, (stream, length, lane_starts)
                in enumerate(zip(streams, lengths, starts))]

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
    only that component and its transitive dependents (everything else is
    served from the session's memo table).  ``mode`` selects the engine
    tier (compiled kernel by default, with automatic interpreter
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
