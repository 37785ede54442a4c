"""Unit tests for the scheduled simulation engine."""

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
from repro.harness import InterfaceSpec, PortTiming, audit_latency
from repro.sim import ScheduledEngine, Simulator, X, compiler_available, is_x
from repro.sim.engine import columns_to_rows, rows_to_columns


def _adder_program():
    component = CalyxComponent(
        "top",
        inputs=[PortSpec("a", 8), PortSpec("b", 8)],
        outputs=[PortSpec("o", 8)],
    )
    component.add_cell(Cell("A", "Add", (8,)))
    component.add_wire(Assignment(CellPort("A", "left"), CellPort(None, "a")))
    component.add_wire(Assignment(CellPort("A", "right"), CellPort(None, "b")))
    component.add_wire(Assignment(CellPort(None, "o"), CellPort("A", "out")))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


class TestSchedule:
    def test_acyclic_netlist_is_levelized(self):
        engine = ScheduledEngine(_adder_program())
        assert engine.is_scheduled and engine.scheduled_everywhere()

    def test_fixpoint_mode_builds_no_schedule(self):
        engine = ScheduledEngine(_adder_program(), mode="fixpoint")
        assert not engine.is_scheduled
        assert engine.step({"a": 2, "b": 3})["o"] == 5

    def test_feedback_through_register_is_acyclic(self):
        """Register outputs depend on state, not inputs, so a counter-style
        loop levelizes."""
        component = CalyxComponent(
            "top", inputs=[PortSpec("en", 1)], outputs=[PortSpec("o", 8)])
        component.add_cell(Cell("A", "Add", (8,)))
        component.add_cell(Cell("R", "Reg", (8,)))
        component.add_wire(Assignment(CellPort("A", "left"), CellPort("R", "out")))
        component.add_wire(Assignment(CellPort("A", "right"), 1))
        component.add_wire(Assignment(CellPort("R", "in"), CellPort("A", "out")))
        component.add_wire(Assignment(CellPort("R", "en"), CellPort(None, "en")))
        component.add_wire(Assignment(CellPort(None, "o"), CellPort("R", "out")))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        engine = ScheduledEngine(program)
        assert engine.is_scheduled
        engine.step({"en": 1})            # R starts X; X+1 = X latched? no: X
        assert is_x(engine.peek("R", "out"))

    def test_self_referential_group_falls_back_and_stabilises_to_x(self):
        """An assignment group reading its own destination (``p = p ? v``)
        is a combinational cycle: both engines must take the sweep path.
        The guard's value is unknowable (it depends on itself), so the port
        X-stabilises — treating the X guard as "inactive" would first commit
        the unconditional driver's value and then report a phantom
        conflict."""
        component = CalyxComponent(
            "top", inputs=[], outputs=[PortSpec("p", 8)])
        component.add_wire(Assignment(CellPort(None, "p"), 5))
        component.add_wire(Assignment(CellPort(None, "p"), 7,
                                      Guard((CellPort(None, "p"),))))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        engine = ScheduledEngine(program)
        assert not engine.is_scheduled
        assert engine.fallback_reason == "self-loop"
        for mode in ("auto", "fixpoint"):
            assert is_x(ScheduledEngine(program, mode=mode).step({})["p"])

    def test_multiply_driven_signal_falls_back(self):
        """A port written by both a primitive and an assignment cannot be
        levelized; the engine silently uses the sweep loop."""
        component = CalyxComponent(
            "top", inputs=[PortSpec("a", 8)], outputs=[PortSpec("o", 8)])
        component.add_cell(Cell("A", "Add", (8,)))
        component.add_wire(Assignment(CellPort("A", "left"), CellPort(None, "a")))
        component.add_wire(Assignment(CellPort("A", "right"), 0))
        component.add_wire(Assignment(CellPort("A", "out"), CellPort(None, "a")))
        component.add_wire(Assignment(CellPort(None, "o"), CellPort("A", "out")))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        assert not ScheduledEngine(program).is_scheduled


class TestConstruction:
    def test_engines_share_the_plan_but_not_the_state(self):
        program = _adder_program()
        first, second = ScheduledEngine(program), ScheduledEngine(program)
        assert first._plan is second._plan
        assert first._prim_nodes[0].in_items is second._prim_nodes[0].in_items
        assert first._primitives["A"] is not second._primitives["A"]
        assert first.step({"a": 1, "b": 2})["o"] == 3
        assert is_x(second.peek(None, "o"))

    def test_construction_resets_each_primitive_once(self, monkeypatch):
        """Every engine resets only its own primitives: building a chain
        of 16 nested engines resets no engine and each model once (a
        recursive reset per ancestor used to make it 136 engine resets)."""
        from repro.core.session import CompilationSession
        from repro.evaluation.compile_time import chain_program
        from repro.sim import engine as engine_module
        from repro.sim.primitives import create_primitive

        program, entry = chain_program(16)
        calyx = CompilationSession(program).calyx(entry)
        engine_resets = []
        monkeypatch.setattr(ScheduledEngine, "reset",
                            lambda self: engine_resets.append(self))
        resets = {}

        def counted_primitive(name, params=()):
            model = create_primitive(name, params)
            reset = model.reset

            def counted():
                resets[id(model)] = resets.get(id(model), 0) + 1
                reset()

            model.reset = counted
            return model

        monkeypatch.setattr(engine_module, "create_primitive",
                            counted_primitive)
        engine = ScheduledEngine(calyx, entry)
        models = []
        pending = [engine]
        while pending:
            node = pending.pop()
            models.extend(node._primitives.values())
            pending.extend(node._children.values())
        assert engine_resets == []
        assert len(models) > 16
        assert [resets.get(id(model)) for model in models] == [1] * len(models)

    def test_a_256_deep_hierarchy_builds_at_the_default_recursion_limit(
            self):
        """The interpreter state of a hierarchy is built from a worklist,
        so ``auto`` builds ``chain_program(256)`` at the default recursion
        limit (a child engine built inside its parent's construction used
        three frames per level and raised ``RecursionError`` from about
        chain255 on) and traces like ``compiled``."""
        import sys

        from repro.core.session import CompilationSession
        from repro.evaluation.compile_time import chain_program

        program, entry = chain_program(256)
        calyx = CompilationSession(program).calyx(entry)
        rows = [{"go": 1, "a": 7 * cycle, "b": cycle + 1}
                for cycle in range(4)] + [{"go": 0, "a": 1, "b": 2}]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            engine = Simulator(calyx, entry, mode="auto")
            trace = engine.run_batch(rows)
        finally:
            sys.setrecursionlimit(limit)
        assert engine._tier == "interpreter"
        assert trace == Simulator(calyx, entry,
                                  mode="compiled").run_batch(rows)
        assert [row["out"] for row in trace[:4]] == [
            (7 * cycle + 256 * (cycle + 1)) & 0xFFFF for cycle in range(4)]


class TestRunBatch:
    def test_run_batch_equals_stepping(self):
        stimuli = [{"a": 1, "b": 2}, {"a": 3, "b": 4}, {"a": 5}]
        batch = Simulator(_adder_program()).run_batch(stimuli)
        stepper = Simulator(_adder_program())
        stepped = [stepper.step(inputs) for inputs in stimuli]
        assert len(batch) == len(stepped)
        for a, b in zip(batch, stepped):
            assert is_x(a["o"]) == is_x(b["o"])
            if not is_x(a["o"]):
                assert a["o"] == b["o"]

    def test_run_batch_validates_names_upfront(self):
        simulator = Simulator(_adder_program())
        with pytest.raises(SimulationError, match="unknown input port"):
            simulator.run_batch([{"a": 1}, {"typo": 2}])
        # Nothing ran: the cycle counter is untouched.
        assert simulator.cycle == 0

    def test_reset_after_batch(self):
        simulator = Simulator(_adder_program())
        simulator.run_batch([{"a": 1, "b": 1}] * 3)
        assert simulator.cycle == 3
        simulator.reset()
        assert simulator.cycle == 0


from repro.conformance.differential import traces_equal as _traces_equal


def _registered_mux_program():
    """Register + guarded assignments + fsm: enough state and control to make
    lane divergence visible across cycles."""
    component = CalyxComponent(
        "top",
        inputs=[PortSpec("go", 1), PortSpec("a", 8), PortSpec("b", 8)],
        outputs=[PortSpec("o", 8)],
    )
    component.add_cell(Cell("F", "fsm", (2,)))
    component.add_cell(Cell("A", "Add", (8,)))
    component.add_cell(Cell("R", "Reg", (8,)))
    component.add_wire(Assignment(CellPort("F", "go"), CellPort(None, "go")))
    component.add_wire(Assignment(CellPort("A", "left"), CellPort(None, "a")))
    component.add_wire(Assignment(CellPort("A", "right"), CellPort(None, "b")))
    component.add_wire(Assignment(CellPort("R", "in"), CellPort("A", "out"),
                                  Guard((CellPort("F", "_0"),))))
    component.add_wire(Assignment(CellPort("R", "en"), CellPort("F", "_0")))
    component.add_wire(Assignment(CellPort(None, "o"), CellPort("R", "out"),
                                  Guard((CellPort("F", "_1"),))))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


#: Every tier ``run_lanes`` can take: the native lane entry, and one scalar
#: run per stream on the compiled kernel or an interpreter.
LANE_MODES = ["auto", "fixpoint", "compiled", "native"]


class TestRunLanes:
    @staticmethod
    def _stream(seed, cycles=9):
        generator = __import__("random").Random(seed)
        stimulus = []
        for cycle in range(cycles):
            inputs = {"go": cycle % 3 == 0 and 1 or 0}
            if generator.random() < 0.7:
                inputs["a"] = generator.getrandbits(8)
            if generator.random() < 0.7:
                inputs["b"] = generator.getrandbits(8)
            stimulus.append(inputs)
        return stimulus

    @pytest.mark.parametrize("mode", LANE_MODES)
    def test_lanes_identical_to_scalar_runs(self, mode):
        program = _registered_mux_program()
        streams = [self._stream(seed) for seed in range(7)]
        traces = Simulator(program, mode=mode).run_lanes(streams)
        for stimulus, trace in zip(streams, traces):
            scalar = Simulator(program, mode=mode).run_batch(stimulus)
            assert _traces_equal(trace, scalar)

    def test_unequal_stream_lengths_are_padded_and_clipped(self):
        program = _registered_mux_program()
        streams = [self._stream(0, cycles=3), self._stream(1, cycles=9),
                   self._stream(2, cycles=6)]
        for mode in LANE_MODES:
            traces = Simulator(program, mode=mode).run_lanes(streams)
            assert [len(trace) for trace in traces] == [3, 9, 6]
            for stimulus, trace in zip(streams, traces):
                assert _traces_equal(trace,
                                     Simulator(program).run_batch(stimulus))

    def test_hierarchical_lanes(self):
        child = CalyxComponent(
            "child", inputs=[PortSpec("x", 8)], outputs=[PortSpec("y", 8)])
        child.add_cell(Cell("A", "Add", (8,)))
        child.add_wire(Assignment(CellPort("A", "left"), CellPort(None, "x")))
        child.add_wire(Assignment(CellPort("A", "right"), 1))
        child.add_wire(Assignment(CellPort(None, "y"), CellPort("A", "out")))
        parent = CalyxComponent(
            "parent", inputs=[PortSpec("x", 8)], outputs=[PortSpec("y", 8)])
        parent.add_cell(Cell("C", "child"))
        parent.add_wire(Assignment(CellPort("C", "x"), CellPort(None, "x")))
        parent.add_wire(Assignment(CellPort(None, "y"), CellPort("C", "y")))
        program = CalyxProgram(entrypoint="parent")
        program.add(child)
        program.add(parent)
        for mode in LANE_MODES:
            traces = Simulator(program, mode=mode).run_lanes(
                [[{"x": 1}, {"x": 2}], [{"x": 10}], [{}]])
            assert [t["y"] for t in traces[0]] == [2, 3]
            assert traces[1][0]["y"] == 11
            assert is_x(traces[2][0]["y"])

    def test_lane_conflict_reports_lane(self):
        component = CalyxComponent(
            "top", inputs=[PortSpec("a", 8), PortSpec("b", 8)],
            outputs=[PortSpec("o", 8)])
        component.add_wire(Assignment(CellPort(None, "o"), CellPort(None, "a")))
        component.add_wire(Assignment(CellPort(None, "o"), CellPort(None, "b")))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        # Lane 0 agrees, lane 1 conflicts.
        for mode in LANE_MODES:
            with pytest.raises(SimulationError) as info:
                Simulator(program, mode=mode).run_lanes(
                    [[{"a": 3, "b": 3}], [{"a": 1, "b": 2}]])
            assert str(info.value) == ("top: conflicting drivers for o in "
                                       "cycle 0 (lane 1)"), mode

    def test_run_lanes_validates_names_and_resets(self):
        program = _registered_mux_program()
        for mode in LANE_MODES:
            simulator = Simulator(program, mode=mode)
            with pytest.raises(SimulationError, match="unknown input port"):
                simulator.run_lanes([[{"go": 1}], [{"typo": 1}]])
            first = simulator.run_lanes([self._stream(0), self._stream(1)])
            assert simulator.cycle == 0  # reset after the lane batch
            # Back-to-back batches are independent: each lane starts fresh.
            assert simulator.run_lanes([self._stream(1)])[0] == first[1]
            assert simulator.step({"go": 1, "a": 1, "b": 1}) is not None

    def test_empty_batch_list(self):
        assert Simulator(_registered_mux_program()).run_lanes([]) == []

    def test_input_values_truncated_to_port_width(self):
        """Every batch entry masks inputs to the declared width on every
        tier, negative values included, so an oversized value reaches
        neither a passthrough output nor a neighbouring lane."""
        component = CalyxComponent(
            "top", inputs=[PortSpec("a", 8), PortSpec("b", 8)],
            outputs=[PortSpec("o", 8), PortSpec("p", 8)])
        component.add_cell(Cell("A", "Add", (8,)))
        component.add_wire(Assignment(CellPort("A", "left"),
                                      CellPort(None, "a")))
        component.add_wire(Assignment(CellPort("A", "right"),
                                      CellPort(None, "b")))
        component.add_wire(Assignment(CellPort(None, "o"),
                                      CellPort("A", "out")))
        component.add_wire(Assignment(CellPort(None, "p"),
                                      CellPort(None, "a")))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        stream = [{"a": 0x1FF, "b": 0}, {"a": 0x100, "b": X},
                  {"a": -1, "b": 1}]
        columns = {"a": ([0x1FF, 0x100, -1], bytearray(3)),
                   "b": ([0, 0, 1], bytearray([0, 1, 0]))}

        def check(trace, entry):
            first, second, third = trace
            assert (first["o"], first["p"]) == (0xFF, 0xFF), entry
            assert second["p"] == 0 and is_x(second["o"]), entry
            assert (third["o"], third["p"]) == (0, 0xFF), entry

        for mode in LANE_MODES:
            traces = Simulator(program, mode=mode).run_lanes(
                [stream, [{"a": 1, "b": 1}]])
            check(traces[0], (mode, "run_lanes"))
            assert traces[1][0]["o"] == 2, mode
            check(Simulator(program, mode=mode).run_batch(stream),
                  (mode, "run_batch"))
            simulator = Simulator(program, mode=mode)
            check([simulator.step(row) for row in stream], (mode, "step"))
            out = Simulator(program, mode=mode).run_columns(3, columns)
            check(columns_to_rows(out, 3), (mode, "run_columns"))
        assert stream[0] == {"a": 0x1FF, "b": 0}  # the caller's rows stay
        assert stream[2] == {"a": -1, "b": 1}


def _plain(columns):
    """Columns with every sequence as a list/bytes pair, so a native
    ``memoryview`` output compares equal to a Python-tier list."""
    return {name: (list(values), bytes(xflags))
            for name, (values, xflags) in columns.items()}


class TestColumnarEntries:
    """``run_columns`` and ``run_lane_columns`` on every tier: the native
    tier runs them as one C call, the Python tiers through ``run_batch`` /
    ``run_lanes`` and the converters, with the same results either way."""

    INPUTS = ("go", "a", "b")
    OUTPUTS = ("o",)

    def _simulator(self, mode):
        if mode == "native" and not compiler_available():
            pytest.skip("no C compiler on host")
        return Simulator(_registered_mux_program(), mode=mode)

    @pytest.mark.parametrize("mode", LANE_MODES)
    def test_run_columns_is_run_batch_in_columns(self, mode):
        stream = TestRunLanes._stream(0, 9)
        simulator = self._simulator(mode)
        out = simulator.run_columns(
            9, rows_to_columns([stream], self.INPUTS, 9))
        assert simulator.cycle == 9
        want = Simulator(_registered_mux_program(),
                         mode=mode).run_batch(stream)
        assert _plain(out) == _plain(
            rows_to_columns([want], self.OUTPUTS, 9))
        assert simulator.uses_native() == (mode == "native")

    @pytest.mark.parametrize("mode", LANE_MODES)
    def test_run_lane_columns_is_run_lanes_in_columns(self, mode):
        # Every lane is shorter than the batch, and one lane is empty.
        lengths = [3, 9, 0, 6]
        streams = [TestRunLanes._stream(seed, length)
                   for seed, length in enumerate(lengths)]
        simulator = self._simulator(mode)
        simulator.step({"go": 1, "a": 1, "b": 2})
        out = simulator.run_lane_columns(
            10, 4, rows_to_columns(streams, self.INPUTS, 10), lengths)
        assert simulator.cycle == 0  # reset after the lane batch
        want = Simulator(_registered_mux_program(),
                         mode=mode).run_lanes(streams)
        assert _plain(out) == _plain(
            rows_to_columns(want, self.OUTPUTS, 10))
        for lane, length in enumerate(lengths):
            assert _traces_equal(columns_to_rows(out, length, 4, lane),
                                 want[lane])
        columns = rows_to_columns(streams, self.INPUTS, 10)
        for bad in ([3, 11, 0, 6], [3, -1, 0, 6], [3, 9, 0]):
            with pytest.raises(SimulationError, match="lane lengths"):
                simulator.run_lane_columns(10, 4, columns, bad)

    @pytest.mark.parametrize("mode", LANE_MODES)
    def test_missing_ports_idle_at_x(self, mode):
        stream = [{"go": 1}, {"go": 0}, {"go": 0}, {"go": 1}]
        columns = {"go": ([1, 0, 0, 1], bytearray(4))}
        want = Simulator(_registered_mux_program(),
                         mode=mode).run_batch(stream)
        out = self._simulator(mode).run_columns(4, columns)
        assert _plain(out) == _plain(
            rows_to_columns([want], self.OUTPUTS, 4))
        lanes = self._simulator(mode).run_lane_columns(
            4, 1, columns, [4])
        assert _plain(lanes) == _plain(out)

    @pytest.mark.parametrize("mode", LANE_MODES)
    def test_unknown_port_raises_the_run_batch_error(self, mode):
        with pytest.raises(SimulationError) as want:
            Simulator(_registered_mux_program(), mode=mode).run_batch(
                [{"typo": 1}])
        columns = {"go": ([1], bytearray(1)), "typo": ([1], bytearray(1))}
        simulator = self._simulator(mode)
        with pytest.raises(SimulationError) as info:
            simulator.run_columns(1, columns)
        assert str(info.value) == str(want.value)
        with pytest.raises(SimulationError) as info:
            simulator.run_lane_columns(1, 1, columns, [1])
        assert str(info.value) == str(want.value)


class TestFallbackReasons:
    def test_scheduled_engine_has_no_reason(self):
        engine = ScheduledEngine(_adder_program())
        assert engine.fallback_reason is None
        assert engine.fallback_reasons() == {}

    def test_forced_fixpoint(self):
        engine = ScheduledEngine(_adder_program(), mode="fixpoint")
        assert engine.fallback_reason == "mode=fixpoint"
        assert engine.fallback_reasons() == {"top": "mode=fixpoint"}

    def test_duplicate_definition(self):
        component = CalyxComponent(
            "top", inputs=[PortSpec("a", 8)], outputs=[PortSpec("o", 8)])
        component.add_cell(Cell("A", "Add", (8,)))
        component.add_wire(Assignment(CellPort("A", "left"), CellPort(None, "a")))
        component.add_wire(Assignment(CellPort("A", "right"), 0))
        component.add_wire(Assignment(CellPort("A", "out"), CellPort(None, "a")))
        component.add_wire(Assignment(CellPort(None, "o"), CellPort("A", "out")))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        engine = ScheduledEngine(program)
        assert engine.fallback_reason == "duplicate-definition"

    def test_input_shadowing(self):
        component = CalyxComponent(
            "top", inputs=[PortSpec("a", 8)], outputs=[PortSpec("o", 8)])
        component.add_wire(Assignment(CellPort(None, "a"), 3))
        component.add_wire(Assignment(CellPort(None, "o"), CellPort(None, "a")))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        assert ScheduledEngine(program).fallback_reason == "input-shadowing"

    def test_self_loop(self):
        component = CalyxComponent(
            "top", inputs=[], outputs=[PortSpec("p", 8)])
        component.add_wire(Assignment(CellPort(None, "p"), 5))
        component.add_wire(Assignment(CellPort(None, "p"), 7,
                                      Guard((CellPort(None, "p"),))))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        assert ScheduledEngine(program).fallback_reason == "self-loop"

    def test_combinational_cycle(self):
        component = CalyxComponent("top", inputs=[], outputs=[PortSpec("o", 8)])
        component.add_cell(Cell("A", "Add", (8,)))
        component.add_cell(Cell("B", "Add", (8,)))
        component.add_wire(Assignment(CellPort("A", "left"), CellPort("B", "out")))
        component.add_wire(Assignment(CellPort("A", "right"), 1))
        component.add_wire(Assignment(CellPort("B", "left"), CellPort("A", "out")))
        component.add_wire(Assignment(CellPort("B", "right"), 1))
        component.add_wire(Assignment(CellPort(None, "o"), CellPort("A", "out")))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        assert ScheduledEngine(program).fallback_reason == "combinational-cycle"

    def test_reasons_collected_recursively(self):
        inner = CalyxComponent("inner", inputs=[], outputs=[PortSpec("p", 8)])
        inner.add_wire(Assignment(CellPort(None, "p"), 5))
        inner.add_wire(Assignment(CellPort(None, "p"), 7,
                                  Guard((CellPort(None, "p"),))))
        outer = CalyxComponent("outer", inputs=[], outputs=[PortSpec("o", 8)])
        outer.add_cell(Cell("I", "inner"))
        outer.add_wire(Assignment(CellPort(None, "o"), CellPort("I", "p")))
        program = CalyxProgram(entrypoint="outer")
        program.add(inner)
        program.add(outer)
        engine = ScheduledEngine(program)
        assert engine.is_scheduled  # the outer netlist itself levelizes
        assert not engine.scheduled_everywhere()
        assert engine.fallback_reasons() == {"inner": "self-loop"}


class TestXGuardAssignments:
    def _program(self, wires):
        component = CalyxComponent(
            "top", inputs=[PortSpec("g", 1), PortSpec("a", 8)],
            outputs=[PortSpec("o", 8)])
        for wire in wires:
            component.add_wire(wire)
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        return program

    @pytest.mark.parametrize("mode", ["auto", "fixpoint", "compiled"])
    def test_x_guard_with_disagreeing_driver_is_x(self, mode):
        """``o = 5; o = g ? 7`` with ``g`` unknown: the result may be either
        5 or 7, so it must read X — not silently 5."""
        program = self._program([
            Assignment(CellPort(None, "o"), 5),
            Assignment(CellPort(None, "o"), 7, Guard((CellPort(None, "g"),))),
        ])
        simulator = Simulator(program, mode=mode)
        assert is_x(simulator.step({})["o"])
        assert simulator.step({"g": 0, "a": 0})["o"] == 5
        # With the guard definitely high both drivers are active and the
        # values genuinely clash — that stays a hard conflict.
        with pytest.raises(SimulationError, match="conflicting drivers"):
            simulator.step({"g": 1, "a": 0})

    @pytest.mark.parametrize("mode", ["auto", "fixpoint", "compiled"])
    def test_x_guard_with_agreeing_driver_keeps_value(self, mode):
        """When the possibly-active driver carries the same value, the guard
        cannot change the outcome and the value stays definite."""
        program = self._program([
            Assignment(CellPort(None, "o"), 5),
            Assignment(CellPort(None, "o"), 5, Guard((CellPort(None, "g"),))),
        ])
        assert Simulator(program, mode=mode).step({})["o"] == 5

    @pytest.mark.parametrize("mode", ["auto", "fixpoint", "compiled"])
    def test_x_guard_alone_is_x_not_silent_inactive(self, mode):
        program = self._program([
            Assignment(CellPort(None, "o"), CellPort(None, "a"),
                       Guard((CellPort(None, "g"),))),
        ])
        assert is_x(Simulator(program, mode=mode).step({"a": 9})["o"])

    def test_packed_x_guard_matches_scalar(self):
        program = self._program([
            Assignment(CellPort(None, "o"), 5),
            Assignment(CellPort(None, "o"), 7, Guard((CellPort(None, "g"),))),
        ])
        streams = [[{"g": 0, "a": 0}, {}], [{}, {"g": 0, "a": 0}]]
        for mode in LANE_MODES:
            traces = Simulator(program, mode=mode).run_lanes(streams)
            for stimulus, trace in zip(streams, traces):
                assert _traces_equal(
                    trace, Simulator(program).run_batch(stimulus)), mode


class TestWideNetlistSchedule:
    def test_deep_chain_levelizes_in_declaration_order(self):
        """Regression for the O(n²) ``ready.pop(0)``: a wide netlist builds
        its schedule promptly, keeps declaration-order determinism, and
        still evaluates correctly."""
        depth = 600
        component = CalyxComponent(
            "top", inputs=[PortSpec("a", 32)], outputs=[PortSpec("o", 32)])
        previous = CellPort(None, "a")
        for index in range(depth):
            component.add_cell(Cell(f"A{index}", "Add", (32,)))
            component.add_wire(Assignment(CellPort(f"A{index}", "left"), previous))
            component.add_wire(Assignment(CellPort(f"A{index}", "right"), 1))
            previous = CellPort(f"A{index}", "out")
        component.add_wire(Assignment(CellPort(None, "o"), previous))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        engine = ScheduledEngine(program)
        assert engine.is_scheduled
        assert len(engine._schedule) == depth + 2 * depth + 1
        assert engine.step({"a": 0})["o"] == depth
        # Determinism: rebuilt schedules are identical.
        def keys(schedule):
            return [(kind, payload.cell if hasattr(payload, "cell")
                     else str(payload.dst)) for kind, payload in schedule]
        assert keys(engine._schedule) == keys(ScheduledEngine(program)._schedule)


class TestAuditLatencyGuards:
    def test_audit_with_no_data_inputs_defaults_hold_to_one(self):
        """A spec with no data inputs (constant generator) must not crash;
        the reported hold defaults to 1."""
        component = CalyxComponent(
            "top", inputs=[PortSpec("go", 1)], outputs=[PortSpec("o", 8)])
        component.add_cell(Cell("C", "Const", (8, 42)))
        component.add_wire(Assignment(CellPort(None, "o"), CellPort("C", "out")))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        spec = InterfaceSpec(
            "top", inputs=[], outputs=[PortTiming("o", 8, 0, 1)],
            interface_ports={"go": 0}, initiation_interval=1)
        audit = audit_latency(program, spec, [{}], {"o": 42})
        assert audit.reported_hold == 1
        assert audit.actual_latency == 0


class TestRunLanesInputHandling:
    """Regressions for the ``run_lanes`` input path: batches arriving as
    non-list sequences (and lists, which are not copied) and rows that
    repeat across the cycle window must all leave the lane traces
    unchanged."""

    def _program(self):
        component = CalyxComponent(
            "top", inputs=[PortSpec("en", 1), PortSpec("a", 8)],
            outputs=[PortSpec("o", 8)])
        component.add_cell(Cell("R", "Reg", (8,)))
        component.add_wire(Assignment(CellPort("R", "en"),
                                      CellPort(None, "en")))
        component.add_wire(Assignment(CellPort("R", "in"),
                                      CellPort(None, "a")))
        component.add_wire(Assignment(CellPort(None, "o"),
                                      CellPort("R", "out")))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        return program

    def _streams(self):
        # Heavy row repetition (idle-template style), plus X rows and
        # per-lane divergence.
        idle = {"en": 0, "a": X}
        return [
            [dict(idle), {"en": 1, "a": 7}] + [dict(idle)] * 6,
            [dict(idle)] * 4 + [{"en": 1, "a": 9}] + [dict(idle)] * 3,
            [dict(idle)] * 8,
        ]

    @pytest.mark.parametrize("mode", LANE_MODES)
    def test_generator_batches_trace_like_list_batches(self, mode):
        program = self._program()
        streams = self._streams()
        as_lists = Simulator(program, mode=mode).run_lanes(streams)
        as_tuples = Simulator(program, mode=mode).run_lanes(
            tuple(tuple(batch) for batch in streams))
        as_generators = Simulator(program, mode=mode).run_lanes(
            [iter(batch) for batch in streams])
        assert as_lists == as_tuples == as_generators

    @pytest.mark.parametrize("mode", LANE_MODES)
    def test_repeated_rows_trace_identically_to_scalar(self, mode):
        program = self._program()
        streams = self._streams()
        traces = Simulator(program, mode=mode).run_lanes(streams)
        scalar = Simulator(program, mode=mode)
        for stimulus, trace in zip(streams, traces):
            scalar.reset()
            assert _traces_equal(trace, scalar.run_batch(stimulus))

    def test_caller_batches_are_not_mutated(self):
        program = self._program()
        streams = self._streams()
        snapshot = [[dict(row) for row in batch] for batch in streams]
        Simulator(program).run_lanes(streams)
        assert streams == snapshot


class TestPlanOnlyEngines:
    """A compiled-tier engine holds plans only: an edit prints, plans and
    builds what it changed, whatever the size of the design."""

    @staticmethod
    def _edit_counts(monkeypatch, depth, value):
        """What one leaf edit of a warm ``chain_program(depth)`` costs in
        components printed, engines built, primitive models made, plans
        resolved, kernel chunks linked and component memos the link
        queries visit, through ``session.verilog``, ``harness_for`` and a
        compiled-tier simulator build and ``prepare()``."""
        from repro.calyx import ir
        from repro.core import fingerprint
        from repro.core.queries import QueryEngine
        from repro.core.session import CompilationSession
        from repro.evaluation import chain_program, edit_chain_leaf
        from repro.harness import harness_for
        from repro.sim import codegen
        from repro.sim import engine as engine_module

        program, entrypoint = chain_program(depth, salt=value ^ 0xFFFF)
        session = CompilationSession(program)
        session.verilog(entrypoint)
        harness = harness_for(program, entrypoint, session=session)
        Simulator(harness.calyx, entrypoint, mode="compiled").prepare()
        counts = {"format_component": 0, "calyx_str": 0, "engines": 0,
                  "models": 0, "plans": 0, "chunks": 0, "link_visits": 0}
        linking = [0]

        def counting(name, function):
            def counted(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return counted

        def link(function):
            def linked(*args):
                linking[0] += 1
                try:
                    return function(*args)
                finally:
                    linking[0] -= 1
            return linked

        def visit(function):
            def visited(*args):
                counts["link_visits"] += linking[0] > 0
                return function(*args)
            return visited

        monkeypatch.setattr(fingerprint, "format_component", counting(
            "format_component", fingerprint.format_component))
        monkeypatch.setattr(ir.CalyxComponent, "__str__", counting(
            "calyx_str", ir.CalyxComponent.__str__))
        monkeypatch.setattr(ScheduledEngine, "__init__", counting(
            "engines", ScheduledEngine.__init__))
        monkeypatch.setattr(engine_module, "create_primitive", counting(
            "models", engine_module.create_primitive))
        monkeypatch.setattr(engine_module, "_plan_for", counting(
            "plans", engine_module._plan_for))
        monkeypatch.setattr(codegen, "_Chunk", counting(
            "chunks", codegen._Chunk))
        for stage in ("link_check", "link_lower", "link_calyx", "verilog"):
            monkeypatch.setattr(QueryEngine, f"_compute_{stage}", link(
                getattr(QueryEngine, f"_compute_{stage}")))
        monkeypatch.setattr(QueryEngine, "_current",
                            visit(QueryEngine._current))
        edit_chain_leaf(program, value)
        session.verilog(entrypoint)
        harness = harness_for(program, entrypoint, session=session)
        Simulator(harness.calyx, entrypoint, mode="compiled").prepare()
        monkeypatch.undo()
        return counts

    def test_an_edit_costs_the_same_at_any_depth(self, monkeypatch):
        # Edit values no other test builds: a plan or chunk cache hit
        # would cost less than a real edit does.
        shallow = self._edit_counts(monkeypatch, 16, 0x2B71)
        deep = self._edit_counts(monkeypatch, 64, 0x2B72)
        assert shallow == deep
        assert shallow["engines"] == 1
        assert shallow["models"] == 0
        # The top's own lookup and the edited leaf; the leaf's chunk.
        assert shallow["plans"] == 2
        assert shallow["chunks"] == 1

    def test_a_long_edit_session_matches_a_scratch_compile(self):
        """100 edits in one session on ``chain_program(16)``: leaf body
        edits, a mid-chain port width edit and its undo, a component added
        and then removed, and in-place edits of a copy of the session's
        netlist built under the same top.  Every tenth step the session's
        Verilog, Calyx text, netlist digest and compiled-tier trace equal
        a scratch compile's, and every netlist edited in place traces like
        the interpreter over a fresh copy."""
        import copy
        import random
        from dataclasses import replace

        from repro.core.ast import Component, PortDef
        from repro.core.session import CompilationSession
        from repro.evaluation import chain_program, edit_chain_leaf
        from repro.sim.codegen import kernel_cache_stats, netlist_digest

        def pieces_bound():
            stats = kernel_cache_stats()
            return stats["pieces_compiled"] + stats["pieces_reused"]

        bound = pieces_bound()
        program, entry = chain_program(16, salt=0x2B74)
        session = CompilationSession(program)
        rng = random.Random(0x2B74)
        rows = [{"go": 1, "a": rng.getrandbits(16), "b": rng.getrandbits(16)}
                for _ in range(12)]

        def compiled(calyx):
            simulator = Simulator(calyx, entry, mode="compiled")
            assert simulator.prepare()["kernel"]
            return simulator

        def edit_in_place(calyx, variant):
            """One of the edits ``test_edited_netlist_is_planned_again``
            makes, on ``calyx``'s top component, or a reordering of a
            grandchild's input ports (its parent, unedited, then writes
            them elsewhere)."""
            top = calyx.get(entry)
            if variant == 0:
                top.wires[-1] = Assignment(CellPort(None, "out"),
                                           CellPort("A", "left"))
            elif variant == 1:
                top.cells.append(Cell("N", "Not", (16,)))
                top.wires.append(Assignment(CellPort("N", "in"),
                                            CellPort("A", "out")))
                top.wires[-2] = Assignment(CellPort(None, "out"),
                                           CellPort("N", "out"))
            elif variant == 2:
                top.wires = list(top.wires)
            else:
                calyx.get("Chain13").inputs.reverse()

        spare = None
        for step in range(100):
            kind = step % 10
            if kind == 3:
                mid = program.get("Chain8")
                width = 17 if step % 20 == 3 else 16
                mid.signature = replace(mid.signature, inputs=tuple(
                    PortDef(port.name, width if port.name == "b"
                            else port.width, port.interval)
                    for port in mid.signature.inputs))
            elif kind == 5:
                leaf = program.get("Chain0")
                spare = Component(replace(leaf.signature,
                                          name=f"Spare{step}"),
                                  list(leaf.body))
                program.add(spare)
            elif kind == 7:
                del program.components[spare.name]
            elif kind in (4, 8):
                copied = copy.deepcopy(session.calyx(entry))
                compiled(copied)
                edit_in_place(copied, step // 5 % 4)
                assert compiled(copied).run_batch(rows) == Simulator(
                    copy.deepcopy(copied), entry, mode="auto").run_batch(rows)
            else:
                edit_chain_leaf(program, rng.getrandbits(16))
            verilog = session.verilog(entry)
            calyx = session.calyx(entry)
            simulator = compiled(calyx)
            if kind == 9:
                scratch = CompilationSession(copy.deepcopy(program))
                reference = scratch.calyx(entry)
                assert verilog == scratch.verilog(entry), step
                assert str(calyx) == str(reference), step
                fresh = compiled(reference)
                assert netlist_digest(simulator) == netlist_digest(fresh)
                assert simulator.run_batch(rows) == fresh.run_batch(rows)
        # Consecutive leaf edits leave the rest of the chain's chunks
        # cached, so the session's kernels ran fused pieces.
        assert pieces_bound() > bound

    def test_forced_codegen_fallback_builds_the_interpreter(
            self, monkeypatch):
        from repro.core.session import CompilationSession
        from repro.evaluation import chain_program
        from repro.sim import codegen

        def unavailable(engine):
            raise codegen.KernelUnavailable("forced")

        from repro.sim import engine as engine_module

        program, entrypoint = chain_program(16, salt=0x2B73)
        calyx = CompilationSession(program).calyx(entrypoint)
        rows = [{"go": 1, "a": a, "b": 3 * a + 1} for a in range(40)]
        monkeypatch.setattr(codegen, "kernel_for", unavailable)
        compiled = Simulator(calyx, entrypoint, mode="compiled")
        assert "_children" not in vars(compiled)
        lookups = []
        plan_for = engine_module._plan_for
        monkeypatch.setattr(engine_module, "_plan_for", lambda *args: (
            lookups.append(args[1].name), plan_for(*args))[1])
        trace = compiled.run_batch(rows)
        assert compiled.kernel_fallback_reason == "codegen(forced)"
        assert len(compiled._children) == 1
        # One plan lookup per child engine the fallback builds: a child
        # that resolved its whole subtree again would make it quadratic.
        assert sorted(lookups) == sorted(f"Chain{i}" for i in range(15))
        assert trace == Simulator(calyx, entrypoint,
                                  mode="fixpoint").run_batch(rows)

    def test_edited_netlist_is_planned_again(self):
        """A netlist a simulator was built from, edited in place, plans
        anew: a replaced wire and an added cell both change the printed
        component, while a copied wire list does not."""
        import copy

        from repro.sim.engine import _PLANS

        program = _adder_program()
        rows = [{"a": a, "b": 7 * a} for a in range(12)]

        def agrees():
            fresh = copy.deepcopy(program)
            return (Simulator(program, mode="compiled").run_batch(rows)
                    == Simulator(fresh, mode="fixpoint").run_batch(rows))

        assert agrees()
        component = program.get("top")
        component.wires[1] = Assignment(CellPort("A", "right"), 5)
        assert agrees()
        component.cells.append(Cell("N", "Not", (8,)))
        component.wires.append(
            Assignment(CellPort("N", "in"), CellPort("A", "out")))
        component.wires[2] = Assignment(CellPort(None, "o"),
                                        CellPort("N", "out"))
        assert agrees()
        misses = _PLANS.stats()["misses"]
        component.wires = list(component.wires)
        assert agrees()
        assert _PLANS.stats()["misses"] == misses


class TestFixpointSettleCount:
    def test_settles_per_cycle_stay_polynomial_in_depth(self, monkeypatch):
        """The fixpoint reference settles each child on every sweep of its
        parent.  A child keeps what it computed earlier in the cycle (its
        values are cleared once per cycle), so ``chain_program(8)`` costs
        120 settles per cycle; clearing a child on every settle instead
        costs 6,552, exponential in the depth.  The bound is checked on
        every call, so such a change fails here at once instead of
        hanging."""
        from repro.core.session import CompilationSession
        from repro.evaluation import chain_program

        depth, cycles = 8, 4
        bound = 4 * depth ** 2
        program, entrypoint = chain_program(depth)
        simulator = Simulator(CompilationSession(program).calyx(entrypoint),
                              entrypoint, mode="fixpoint")
        settle = ScheduledEngine._settle
        calls = 0

        def counted(engine):
            nonlocal calls
            calls += 1
            assert calls <= bound * cycles, f"{calls} settles"
            return settle(engine)

        monkeypatch.setattr(ScheduledEngine, "_settle", counted)
        trace = simulator.run_batch(
            [{"go": 1, "a": a, "b": 2} for a in range(cycles)])
        assert [row["out"] for row in trace] == [
            a + 2 * depth for a in range(cycles)]
        assert calls <= bound * cycles


def _self_loop_program():
    """``o = a`` twice, once guarded by ``o`` itself: the schedule rejects
    the self-loop, and the sweep loop settles ``o`` to ``a``."""
    component = CalyxComponent(
        "loopy", inputs=[PortSpec("a", 8)], outputs=[PortSpec("o", 8)])
    component.add_wire(Assignment(CellPort(None, "o"), CellPort(None, "a")))
    component.add_wire(Assignment(CellPort(None, "o"), CellPort(None, "a"),
                                  Guard((CellPort(None, "o"),))))
    program = CalyxProgram(entrypoint="loopy")
    program.add(component)
    return program


_NO_CC = "native(no C compiler (cc/gcc/clang) on PATH)"
_BLACK_BOX = "native(black-box primitive Tdot: 'u' in top)"
_SELF_LOOP = "interpreter(loopy: self-loop)"
_FORCED = "codegen(forced)"

#: ``(mode, netlist) -> (tier, kernel_fallback_reason,
#: native_fallback_reason)`` on a host with a C compiler.  ``auto`` and
#: ``fixpoint`` run the interpreter with no reason on every netlist;
#: ``native-no-cc`` is ``native`` with ``REPRO_CC`` naming no compiler.
_TIERS = {
    ("compiled", "addmult"): ("compiled", None, None),
    ("compiled", "blackbox"): ("compiled", None, None),
    ("compiled", "self-loop"): ("interpreter", _SELF_LOOP, None),
    ("compiled", "no-codegen"): ("interpreter", _FORCED, None),
    ("native", "addmult"): ("native", None, None),
    ("native", "blackbox"): ("compiled", None, _BLACK_BOX),
    ("native", "self-loop"): ("interpreter", _SELF_LOOP, _SELF_LOOP),
    ("native", "no-codegen"): ("native", None, None),
    ("native-no-cc", "addmult"): ("compiled", None, _NO_CC),
}

#: The same rows on a host without a C compiler.
_TIERS_WITHOUT_CC = {
    ("native", "addmult"): ("compiled", None, _NO_CC),
    ("native", "no-codegen"): ("interpreter", _FORCED, _NO_CC),
}

_TIER_CASES = [(mode, netlist)
               for mode in ("auto", "fixpoint", "compiled", "native")
               for netlist in ("addmult", "blackbox", "self-loop",
                               "no-codegen")] + [("native-no-cc", "addmult")]


class TestTierContract:
    """Each engine decides its tier once, down native → compiled →
    interpreter.  One row per mode and netlist pins what an engine reports
    after ``prepare()`` and after a run, what ``peek``/``outputs`` read,
    and the one build stage a session records."""

    @staticmethod
    def _netlist(name):
        """``(calyx, entrypoint, rows, output port)``; the last row's
        output is concrete on every tier."""
        if name == "blackbox":
            import repro.generators.reticle.dsp  # noqa: F401 — registers Tdot
            from test_codegen import _single_cell_program

            ports = ("a0", "b0", "a1", "b1", "a2", "b2", "c")
            program = _single_cell_program("Tdot", (8,),
                                           {port: 8 for port in ports})
            rows = [{f"i_{port}": i + 1 for port in ports}
                    for i in range(8)]
            return program, "top", rows, "o_y"
        if name == "self-loop":
            return (_self_loop_program(), "loopy",
                    [{"a": 3}, {"a": 9}], "o")
        from repro.core.session import CompilationSession
        from repro.designs import addmult_program

        calyx = CompilationSession(addmult_program()).calyx("AddMult")
        rows = [{"go": 1, "a": i, "b": i + 1, "c": 3} for i in range(6)]
        return calyx, "AddMult", rows, "out"

    @staticmethod
    def _report(engine):
        info = engine.prepare()
        return {
            "uses_kernel": engine.uses_kernel(),
            "uses_native": engine.uses_native(),
            "native_active": engine.native_active(),
            "kernel_fallback_reason": engine.kernel_fallback_reason,
            "native_fallback_reason": engine.native_fallback_reason,
            **{key: info[key] for key in ("kernel", "cached", "native",
                                          "native_cached")}}

    def test_a_native_fallback_decides_the_compiled_kernel_at_once(self):
        """``native_active()`` decides the whole chain: a C-tier fallback
        builds the compiled kernel then, not at the first run.
        ``prepare()`` reports the four tier keys only."""
        calyx, entrypoint, _, _ = self._netlist("blackbox")
        engine = Simulator(calyx, entrypoint, mode="native")
        assert not engine.native_active()
        assert engine.uses_kernel()
        assert sorted(engine.prepare()) == ["cached", "kernel", "native",
                                            "native_cached"]

    @pytest.mark.parametrize("mode,netlist", _TIER_CASES,
                             ids=[f"{m}-{n}" for m, n in _TIER_CASES])
    def test_one_tier_per_engine(self, mode, netlist, tmp_path,
                                 monkeypatch):
        from repro.core.session import CompilationSession
        from repro.sim import clear_kernel_cache, clear_native_cache, codegen

        table = (_TIERS if compiler_available()
                 else {**_TIERS, **_TIERS_WITHOUT_CC})
        tier, kernel_reason, native_reason = table.get(
            (mode, netlist), ("interpreter", None, None))
        if mode == "native-no-cc":
            monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
            mode = "native"
        if netlist == "no-codegen":
            def unavailable(engine):
                raise codegen.KernelUnavailable("forced")

            monkeypatch.setattr(codegen, "kernel_for", unavailable)
        # A fresh store and empty caches: the session's first build of
        # either kernel misses, its second hits.
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        clear_native_cache()
        clear_kernel_cache()
        calyx, entrypoint, rows, port = self._netlist(
            "addmult" if netlist == "no-codegen" else netlist)

        session = CompilationSession.from_calyx(calyx)
        for _ in range(2):
            session.simulator(entrypoint, mode=mode)
        stage = {"native": "native", "compiled": "kernel"}.get(tier)
        stats = session.cache_stats()
        assert {name: stats[name] for name in ("native", "kernel")
                if name in stats} == (
            {stage: {"hits": 1, "misses": 1}} if stage else {})
        assert (stage in session.stage_seconds()) == (stage is not None)

        engine = Simulator(calyx, entrypoint, mode=mode)
        want = {"uses_kernel": tier == "compiled",
                "uses_native": tier == "native",
                "native_active": tier == "native",
                "kernel_fallback_reason": kernel_reason,
                "native_fallback_reason": native_reason,
                "kernel": tier == "compiled", "cached": tier == "compiled",
                "native": tier == "native",
                "native_cached": tier == "native"}
        assert self._report(engine) == want
        trace = engine.run_batch(rows)
        assert self._report(engine) == want
        assert trace == Simulator(calyx, entrypoint,
                                  mode="fixpoint").run_batch(rows)
        assert not is_x(trace[-1][port])
        assert engine.outputs() == trace[-1]
        assert engine.peek(None, port) == trace[-1][port]
        engine.reset()
        assert is_x(engine.peek(None, port))
        assert all(is_x(value) for value in engine.outputs().values())
        clear_native_cache()
