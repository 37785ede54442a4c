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
from repro.sim import is_x


def _addmult_harness():
    return harness_for(addmult_program(), "AddMult")


def _golden(transaction):
    return {"out": addmult(transaction["a"], transaction["b"],
                           transaction["c"])}


class TestHarnessRunLanes:
    def test_lanes_match_per_stream_runs(self):
        harness = _addmult_harness()
        streams = [random_transactions(harness, count, seed=seed)
                   for seed, count in enumerate((5, 3, 7))]
        lanes = harness.run_lanes(streams)
        for stream, lane_results in zip(streams, lanes):
            scalar = harness.run(stream)
            assert len(lane_results) == len(scalar) == len(stream)
            for got, want in zip(lane_results, scalar):
                assert got.start_cycle == want.start_cycle
                assert got.inputs == want.inputs
                for name, value in want.outputs.items():
                    assert is_x(got.outputs[name]) == is_x(value)
                    if not is_x(value):
                        assert got.outputs[name] == value

    def test_fuzz_against_golden_with_lanes(self):
        harness = _addmult_harness()
        report = fuzz_against_golden(harness, _golden, count=6, seed=3,
                                     lanes=5)
        assert report.passed, str(report)
        assert report.transactions == 30
        assert report.seed == 3

    def test_fuzz_lane_divergences_name_the_lane(self):
        harness = _addmult_harness()
        report = fuzz_against_golden(
            harness, lambda t: {"out": 2 ** 40}, count=2, seed=0, lanes=3)
        assert not report.passed
        assert any(divergence.startswith("lane 2 ")
                   for divergence in report.divergences)


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
