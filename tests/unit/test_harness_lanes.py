"""Lane-batch harness plumbing: ``run_lanes`` on the cycle-accurate
driver, multi-stream fuzzing, and fallback-reason reporting in
``DifferentialReport``."""

import pytest

from repro.calyx.ir import (
    Assignment,
    CalyxComponent,
    CalyxProgram,
    Cell,
    CellPort,
    PortSpec,
)
from repro.designs import addmult_program
from repro.designs.golden import addmult
from repro.harness import (
    CycleAccurateHarness,
    InterfaceSpec,
    PortTiming,
    harness_for,
    random_transactions,
)
from repro.harness.fuzz import differential_test, fuzz_against_golden
from repro.sim import X, compiler_available

#: Every tier the harness captures from: the dict trace of the scheduled
#: interpreter and the compiled kernel, and the native columns (only where
#: a C compiler exists).
MODES = ("auto", "compiled") + (("native",) if compiler_available() else ())


def _addmult_harness(mode="compiled", width=32):
    return harness_for(addmult_program(width), "AddMult", mode=mode)


def _without_input(harness, name):
    """``harness`` with input ``name`` left out of its spec: never driven,
    so the design sees X there."""
    spec = harness.spec
    return CycleAccurateHarness(
        harness.calyx,
        InterfaceSpec(spec.name,
                      [port for port in spec.inputs if port.name != name],
                      list(spec.outputs), dict(spec.interface_ports),
                      spec.initiation_interval),
        harness.component, mode=harness.mode)


def _rows(results):
    return [(result.index, result.start_cycle, result.inputs, result.outputs)
            for result in results]


def _golden(transaction):
    return {"out": addmult(transaction["a"], transaction["b"],
                           transaction["c"])}


#: ``random_transactions`` for the 8-bit AddMult, two transactions, seed 1.
STREAM = [{"a": 34, "b": 145, "c": 216}, {"a": 205, "b": 195, "c": 16}]


class TestHarnessRunLanes:
    def test_lanes_match_per_stream_runs(self):
        """On every tier, each lane of a batch equals its stream's scalar
        run, and the scalar runs match pinned results: unequal stream
        lengths with an empty stream, spacing above the II, spacing 0 over
        identical transactions, no extra cycles, and a captured X."""
        same = [{"a": 3, "b": 5, "c": 7}] * 3
        for mode in MODES:
            harness = _addmult_harness(mode, width=8)
            undriven = _without_input(harness, "c")
            assert random_transactions(harness, 2, seed=1) == STREAM
            streams = [random_transactions(harness, count, seed=seed)
                       for seed, count in enumerate((5, 3, 0, 7))]
            cases = (
                (harness, streams, {}, None),
                (harness, [STREAM, [], STREAM[:1]], {"spacing": 3}, [
                    (0, 0, STREAM[0], {"out": 26}),
                    (1, 3, STREAM[1], {"out": 55})]),
                (harness, [same, same[:1]], {"spacing": 0}, [
                    (index, 0, same[0], {"out": 22}) for index in range(3)]),
                (harness, [STREAM, []], {"extra_cycles": 0}, [
                    (0, 0, STREAM[0], {"out": 26}),
                    (1, 2, STREAM[1], {"out": 55})]),
                (undriven, [STREAM, STREAM[1:]], {}, [
                    (0, 0, STREAM[0], {"out": X}),
                    (1, 2, STREAM[1], {"out": X})]),
            )
            for subject, lane_streams, options, pinned in cases:
                context = (mode, options, pinned)
                lanes = subject.run_lanes(lane_streams, **options)
                assert len(lanes) == len(lane_streams), context
                for stream, lane_results in zip(lane_streams, lanes):
                    scalar = subject.run(stream, **options)
                    assert len(lane_results) == len(scalar) == len(stream)
                    assert _rows(lane_results) == _rows(scalar), context
                if pinned is not None:
                    assert _rows(subject.run(lane_streams[0],
                                             **options)) == pinned, context

    def test_fuzz_against_golden_with_lanes(self):
        harness = _addmult_harness()
        report = fuzz_against_golden(harness, _golden, count=6, seed=3,
                                     lanes=5)
        assert report.passed, str(report)
        assert report.transactions == 30
        assert report.seed == 3

    def test_fuzz_lane_divergences_name_the_lane(self):
        """Divergence messages, byte for byte on every tier: a wrong
        value, a golden key that is not an output (it reads X) and an X
        captured because input ``c`` is never driven."""
        for mode in MODES:
            harness = _addmult_harness(mode, width=8)
            report = fuzz_against_golden(
                harness, lambda t: {"out": 2 ** 40}, count=2, seed=0,
                lanes=3)
            assert report.divergences == [
                "lane 0 transaction 0 ({'a': 216, 'b': 98, 'c': 194}): "
                "out expected 1099511627776 got 114",
                "lane 0 transaction 1 ({'a': 227, 'b': 107, 'c': 10}): "
                "out expected 1099511627776 got 235",
                "lane 1 transaction 0 ({'a': 34, 'b': 145, 'c': 216}): "
                "out expected 1099511627776 got 26",
                "lane 1 transaction 1 ({'a': 205, 'b': 195, 'c': 16}): "
                "out expected 1099511627776 got 55",
                "lane 2 transaction 0 ({'a': 244, 'b': 220, 'c': 242}): "
                "out expected 1099511627776 got 162",
                "lane 2 transaction 1 ({'a': 217, 'b': 14, 'c': 23}): "
                "out expected 1099511627776 got 245",
            ], mode
            report = fuzz_against_golden(
                harness, lambda t: {"nope": 1}, count=1, seed=2, lanes=2)
            assert report.divergences == [
                "lane 0 transaction 0 ({'a': 244, 'b': 220, 'c': 242}): "
                "nope expected 1 got X",
                "lane 1 transaction 0 ({'a': 60, 'b': 151, 'c': 139}): "
                "nope expected 1 got X",
            ], mode
            report = fuzz_against_golden(
                _without_input(harness, "c"),
                lambda t: {"out": (t["a"] * t["b"]) & 0xFF}, count=2, seed=4)
            assert report.divergences == [
                "transaction 0 ({'a': 60, 'b': 77}): out expected 12 got X",
                "transaction 1 ({'a': 26, 'b': 184}): "
                "out expected 176 got X",
            ], mode


def _cyclic_program():
    component = CalyxComponent(
        "top", inputs=[PortSpec("a", 8), PortSpec("sel", 1)],
        outputs=[PortSpec("o", 8)])
    component.add_cell(Cell("M", "Mux", (8,)))
    component.add_wire(Assignment(CellPort("M", "in0"), CellPort(None, "a")))
    component.add_wire(Assignment(CellPort("M", "in1"), CellPort("M", "out")))
    component.add_wire(Assignment(CellPort("M", "sel"), CellPort(None, "sel")))
    component.add_wire(Assignment(CellPort(None, "o"), CellPort("M", "out")))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


class TestDifferentialFallbackReasons:
    def test_scheduled_designs_report_no_fallback(self):
        reference = _addmult_harness()
        candidate = _addmult_harness()
        report = differential_test(reference, candidate, count=4, seed=2)
        assert report.passed
        assert report.fallback_reasons == {"reference": {}, "candidate": {}}

    def test_cyclic_candidate_reports_its_reason(self):
        spec = InterfaceSpec(
            "top",
            inputs=[PortTiming("a", 8, 0, 1), PortTiming("sel", 1, 0, 1)],
            outputs=[PortTiming("o", 8, 0, 1)],
            initiation_interval=1,
        )
        program = _cyclic_program()
        reference = CycleAccurateHarness(program, spec)
        candidate = CycleAccurateHarness(program, spec)
        transactions = [{"a": value, "sel": 0} for value in range(1, 5)]
        report = differential_test(reference, candidate, transactions)
        assert report.passed, str(report)
        assert report.fallback_reasons["candidate"] == {
            "top": "combinational-cycle"}
        assert "combinational-cycle" in str(report)
