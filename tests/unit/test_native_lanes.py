"""The native *lane* entry: ``k_run_lanes`` plumbing end to end.

``test_width_boundaries.py`` already sweeps every primitive and boundary
width through the lane entry; this module pins down the machinery around
it: lane-conflict error parity with the scalar fallback (byte-identical
message, earliest cycle then lowest lane), mixed-length and degenerate
stream shapes, unknown-port validation, the recorded fallback reason when
no compiler exists, the harness columnar lane path (native vs compiled
parity), and row ownership — scheduling must never mutate caller-owned
transactions or hand out shared rows a later write could corrupt.
"""

import pytest

from repro.calyx.ir import (
    Assignment,
    CalyxComponent,
    CalyxProgram,
    Cell,
    CellPort,
    Guard,
    PortSpec,
)
from repro.core.errors import SimulationError
from repro.core.store import DigestCache
from repro.designs import addmult_program
from repro.harness import harness_for, random_transactions
from repro.sim import Simulator, X, compiler_available, is_x
from repro.sim import native as native_module

from test_codegen import _same_traces, _single_cell_program, _stimulus

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler on host")

LANES = 4


def _driver_program(drivers):
    """``drivers`` maps each 8-bit output to its ``(guard, source)`` pairs;
    guards are 1-bit inputs, sources 8-bit inputs."""
    guards = sorted({guard for pairs in drivers.values()
                     for guard, _ in pairs})
    sources = sorted({src for pairs in drivers.values() for _, src in pairs})
    component = CalyxComponent(
        "top", inputs=[PortSpec(guard, 1) for guard in guards]
        + [PortSpec(src, 8) for src in sources],
        outputs=[PortSpec(out, 8) for out in drivers])
    for out, pairs in drivers.items():
        for guard, src in pairs:
            component.add_wire(Assignment(
                CellPort(None, out), CellPort(None, src),
                Guard((CellPort(None, guard),))))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


#: Two guarded drivers onto one output — the conflict-error testbed.
GUARDED = {"o": [("g", "a"), ("h", "b")]}


def _guarded_program():
    return _driver_program(GUARDED)


def _constant_drivers_program(guarded):
    """``o`` driven by the constants 5 and 6: always, or (``guarded``)
    under the output of a 1-bit register that loads 1 every cycle, so the
    drivers clash from cycle 1 on.  The 8-bit input ``a`` is unused."""
    component = CalyxComponent("top", inputs=[PortSpec("a", 8)],
                               outputs=[PortSpec("o", 8)])
    guard = Guard()
    if guarded:
        component.add_cell(Cell("r", "Reg", (1,)))
        component.add_wire(Assignment(CellPort("r", "en"), 1))
        component.add_wire(Assignment(CellPort("r", "in"), 1))
        guard = Guard((CellPort("r", "out"),))
    for value in (5, 6):
        component.add_wire(Assignment(CellPort(None, "o"), value, guard))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


class TestLaneConflictParity:
    """Lane conflicts must be reported identically by the native lane entry
    and the scalar fallback, byte for byte: the earliest conflicting cycle
    first, then the lowest lane."""

    CLEAN = [{"g": 1, "h": 0, "a": 3, "b": 4},
             {"g": 0, "h": 1, "a": 5, "b": 6}]
    CONFLICT = [{"g": 1, "h": 0, "a": 3, "b": 4},
                {"g": 1, "h": 1, "a": 3, "b": 4}]
    #: Conflicts one cycle later than :attr:`CONFLICT`.
    LATE_CONFLICT = CLEAN + [{"g": 1, "h": 1, "a": 7, "b": 8}]

    #: Three guarded drivers onto ``o``; each stream is one cycle.
    FANIN = {"o": [("g", "a"), ("h", "b"), ("k", "c")]}
    FANIN_CLEAN = [{"g": 1, "h": 0, "k": 0, "a": 3, "b": 4, "c": 5}]
    FANIN_GK = [{"g": 1, "h": 0, "k": 1, "a": 3, "b": 4, "c": 5}]
    FANIN_GH = [{"g": 1, "h": 1, "k": 0, "a": 3, "b": 4, "c": 5}]

    #: Two driver groups, ``o1`` under g/h and ``o2`` under p/q.
    TWO_GROUPS = {"o1": [("g", "a"), ("h", "b")],
                  "o2": [("p", "c"), ("q", "d")]}
    GROUPS_CLEAN = [{"g": 1, "h": 0, "p": 1, "q": 0,
                     "a": 3, "b": 4, "c": 5, "d": 6}]
    GROUPS_O2 = [{"g": 1, "h": 0, "p": 1, "q": 1,
                  "a": 3, "b": 4, "c": 5, "d": 6}]
    GROUPS_O1 = [{"g": 1, "h": 1, "p": 1, "q": 0,
                  "a": 3, "b": 4, "c": 5, "d": 6}]

    #: (netlist, streams, the message every tier must raise).
    CASES = [
        # The clean lanes must not mask lane 2.
        (_driver_program(GUARDED), [CLEAN, CLEAN, CONFLICT],
         "top: conflicting drivers for o in cycle 1 (lane 2)"),
        # Lane 1 conflicts a cycle after lanes 2 and 3: the fallback runs
        # lane 1 first, but the earliest cycle wins, then the lowest lane.
        (_driver_program(GUARDED), [CLEAN, LATE_CONFLICT, CONFLICT, CONFLICT],
         "top: conflicting drivers for o in cycle 1 (lane 2)"),
        # Lane 1 clashes on drivers 0 and 2, lane 3 on drivers 0 and 1:
        # the lower lane wins even though its clash comes from a later
        # driver.
        (_driver_program(FANIN), [FANIN_CLEAN, FANIN_GK, FANIN_CLEAN,
                                  FANIN_GH],
         "top: conflicting drivers for o in cycle 0 (lane 1)"),
        # Lane 1 clashes on o2, lane 3 on o1: the lower lane wins even
        # though its group comes later in the schedule.
        (_driver_program(TWO_GROUPS), [GROUPS_CLEAN, GROUPS_O2,
                                       GROUPS_CLEAN, GROUPS_O1],
         "top: conflicting drivers for o2 in cycle 0 (lane 1)"),
        # A lane whose stream has ended runs no further cycles, so it never
        # conflicts: an empty stream runs no cycle at all ...
        (_constant_drivers_program(guarded=False), [[], [{"a": 1}]],
         "top: conflicting drivers for o in cycle 0 (lane 1)"),
        # ... and lane 0 ends before its register arms the clashing
        # drivers.
        (_constant_drivers_program(guarded=True),
         [[{"a": 1}], [{"a": 1}, {"a": 2}, {"a": 3}]],
         "top: conflicting drivers for o in cycle 1 (lane 1)"),
    ]

    def _message(self, mode, program, streams):
        simulator = Simulator(program, mode=mode)
        with pytest.raises(SimulationError) as info:
            simulator.run_lanes(streams)
        return simulator, str(info.value)

    @needs_cc
    def test_lane_conflict_message_is_byte_identical(self):
        for program, streams, expected in self.CASES:
            native, message = self._message("native", program, streams)
            assert native.uses_native_lanes()
            assert message == expected
            for mode in ("fixpoint", "auto", "compiled"):
                assert self._message(mode, program, streams)[1] == message, \
                    mode

    @needs_cc
    def test_clean_lanes_alongside_agreeing_drivers_pass(self):
        agree = [{"g": 1, "h": 1, "a": 9, "b": 9},
                 {"g": 0, "h": 1, "a": 1, "b": 7}]
        native = Simulator(_guarded_program(), mode="native")
        traces = native.run_lanes([self.CLEAN, agree])
        assert native.uses_native_lanes(), \
            native.native_fallback_reason
        scalar = Simulator(_guarded_program(), mode="fixpoint")
        for stream, trace in zip((self.CLEAN, agree), traces):
            scalar.reset()
            _same_traces(scalar.run_batch(stream), trace)


class TestStreamShapes:
    def _program(self):
        return _single_cell_program("Add", (16,), {"left": 16, "right": 16})

    @needs_cc
    def test_mixed_length_streams_pad_and_truncate_correctly(self):
        import random
        rng = random.Random(11)
        widths = {"left": 16, "right": 16}
        streams = [_stimulus(rng, widths, length) for length in (1, 6, 0, 3)]
        native = Simulator(self._program(), mode="native")
        traces = native.run_lanes(streams)
        assert native.uses_native_lanes(), \
            native.native_fallback_reason
        assert [len(trace) for trace in traces] == [1, 6, 0, 3]
        scalar = Simulator(self._program(), mode="auto")
        for stream, trace in zip(streams, traces):
            scalar.reset()
            _same_traces(scalar.run_batch(stream), trace)

    def test_empty_batch_returns_empty(self):
        native = Simulator(self._program(), mode="native")
        assert native.run_lanes([]) == []

    def test_unknown_port_is_rejected_before_the_c_call(self):
        native = Simulator(self._program(), mode="native")
        with pytest.raises(SimulationError, match="unknown input"):
            native.run_lanes([[{"i_left": 1, "bogus": 2}]])

    @needs_cc
    def test_lane_runs_leave_the_engine_reset(self):
        """``run_lanes`` documents fresh-engine semantics: back-to-back
        calls must be independent."""
        stream = [{"i_left": 2, "i_right": 3}, {"i_left": X, "i_right": 1}]
        native = Simulator(self._program(), mode="native")
        first = native.run_lanes([stream, stream])
        second = native.run_lanes([stream])
        _same_traces(first[0], first[1])
        _same_traces(first[0], second[0])


class TestFallbackReason:
    def test_missing_compiler_records_the_lane_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc-for-test")
        monkeypatch.setattr(native_module, "_COMPILER_CACHE", {})
        # A program another test already loaded would skip the compiler.
        monkeypatch.setattr(native_module, "_CACHE",
                            DigestCache(native_module._CACHE.bound))
        program = _single_cell_program("Add", (8,), {"left": 8, "right": 8})
        stream = [{"i_left": 1, "i_right": 2}, {"i_left": 3, "i_right": 4}]
        native = Simulator(program, mode="native")
        traces = native.run_lanes([stream, stream])
        assert not native.uses_native_lanes()
        reason = native.native_fallback_reason
        assert reason is not None and "no C compiler" in reason
        scalar = Simulator(program, mode="auto")
        for trace in traces:
            scalar.reset()
            _same_traces(scalar.run_batch(stream), trace)


class TestHarnessLanePath:
    def _harness(self, mode):
        return harness_for(addmult_program(), "AddMult", mode=mode)

    def _streams(self, harness):
        return [random_transactions(harness, count, seed=seed)
                for seed, count in enumerate((5, 3, 7))]

    def _assert_results_equal(self, got, want):
        assert len(got) == len(want)
        for got_lane, want_lane in zip(got, want):
            assert len(got_lane) == len(want_lane)
            for g, w in zip(got_lane, want_lane):
                assert g.start_cycle == w.start_cycle
                assert g.inputs == w.inputs
                for name, value in w.outputs.items():
                    assert is_x(g.outputs[name]) == is_x(value)
                    if not is_x(value):
                        assert g.outputs[name] == value

    @needs_cc
    def test_native_lane_path_matches_the_dict_path(self):
        native = self._harness("native")
        streams = self._streams(native)
        native_results = native.run_lanes(streams)
        assert native._simulator.uses_native_lanes(), \
            native._simulator.native_fallback_reason
        compiled = self._harness("compiled")
        self._assert_results_equal(native_results,
                                   compiled.run_lanes(streams))

    @pytest.mark.parametrize("mode", ("compiled", "native"))
    def test_scheduling_never_mutates_caller_transactions(self, mode):
        """The columnar schedule and the lane merge must stay invisible:
        caller-owned transaction dicts unchanged, repeated runs
        identical."""
        harness = self._harness(mode)
        streams = self._streams(harness)
        snapshots = [[dict(t) for t in stream] for stream in streams]
        first = harness.run_lanes(streams)
        assert [[dict(t) for t in stream] for stream in streams] \
            == snapshots
        second = harness.run_lanes(streams)
        self._assert_results_equal(first, second)
        # The scalar path schedules the same columns.
        scalar_first = harness.run(streams[0])
        scalar_second = harness.run(streams[0])
        self._assert_results_equal([scalar_first], [scalar_second])
        assert [dict(t) for t in streams[0]] == snapshots[0]

    def test_interned_idle_rows_are_copied_on_write(self):
        """Every scheduled cycle owns its stimulus row: writing one row
        changes no other cycle, and no later schedule."""
        harness = self._harness("compiled")
        transactions = random_transactions(harness, 2, seed=0)
        stimulus, starts = harness._schedule(transactions)
        idle_rows = [row for row in stimulus
                     if all(is_x(row[p.name]) for p in harness.spec.inputs)]
        assert len(idle_rows) > 1, \
            "expected idle cycles in a pipelined schedule"
        assert stimulus[starts[0]] is not idle_rows[0]
        snapshot = [dict(row) for row in stimulus]
        for index, row in enumerate(stimulus):
            row["a"] = 99
            assert all(other == snapshot[cycle]
                       for cycle, other in enumerate(stimulus)
                       if cycle != index), index
            row["a"] = snapshot[index]["a"]
        idle_rows[0]["a"] = 99
        assert harness._schedule(transactions)[0] == snapshot
