"""Unit tests for the cycle-accurate harness and the synthesis cost model."""

import pytest

from repro.core import check_program, with_stdlib
from repro.core.lower import compile_program
from repro.designs.addmult import addmult_program
from repro.designs.alu import alu_program
from repro.designs.fpadd import buggy_stage_crossing_mac, mac_program
from repro.harness import (
    CycleAccurateHarness,
    HarnessReport,
    audit_latency,
    differential_test,
    fuzz_against_golden,
    harness_for,
    random_transactions,
    spec_from_signature,
)
from repro.harness.spec import InterfaceSpec, PortTiming
from repro.sim.values import is_x
from repro.synth import estimate_area, estimate_timing, flatten, synthesize


class TestSpecExtraction:
    def test_spec_from_signature(self):
        program = alu_program("pipelined")
        spec = spec_from_signature(program.get("ALU").signature)
        assert spec.initiation_interval == 1
        assert spec.input("op").start == 2 and spec.input("op").hold_cycles == 1
        assert spec.output("o").start == 2
        assert spec.latency() == 2
        assert spec.interface_ports == {"en": 0}

    def test_with_latency_and_hold_adjustments(self):
        spec = InterfaceSpec("X", [PortTiming("a", 8, 0, 1)],
                             [PortTiming("o", 8, 3, 4)], {}, 1)
        assert spec.with_latency(7).output("o").start == 7
        assert spec.with_input_hold(4).input("a").hold_cycles == 4


class TestDriver:
    def test_pipelined_alu_transactions(self):
        harness = harness_for(alu_program("pipelined"), "ALU")
        report = harness.check(
            [{"op": 0, "l": 10, "r": 20}, {"op": 1, "l": 10, "r": 20},
             {"op": 1, "l": 6, "r": 7}],
            lambda t: {"o": t["l"] * t["r"] if t["op"] else t["l"] + t["r"]},
        )
        assert report.passed, str(report)

    def test_sequential_alu_respects_larger_initiation_interval(self):
        harness = harness_for(alu_program("sequential"), "ALU")
        assert harness.spec.initiation_interval == 3
        report = harness.check(
            [{"op": 1, "l": 3, "r": 9}, {"op": 0, "l": 3, "r": 9}],
            lambda t: {"o": t["l"] * t["r"] if t["op"] else t["l"] + t["r"]},
        )
        assert report.passed

    def test_overlapping_input_holds_are_an_error(self):
        """Two transactions whose input-hold windows collide on one port with
        different values cannot be scheduled."""
        from repro.core.errors import SimulationError
        program = mac_program("comb")
        calyx = compile_program(program, "MacComb")
        spec = spec_from_signature(program.get("MacComb").signature)
        stretched = spec.with_input_hold(2)   # hold 2 but start every cycle
        harness = CycleAccurateHarness(calyx, stretched, "MacComb")
        with pytest.raises(SimulationError):
            harness.run([{"a": 1, "b": 1, "c": 1}, {"a": 2, "b": 2, "c": 2}],
                        spacing=1)
        # One scheduler on every tier: inputs in spec order, then
        # transactions in order, so the collision on ``a`` at cycle 2 is
        # met before the one on ``b`` at cycle 1.
        addmult = harness_for(addmult_program(), "AddMult")
        held = addmult.spec.with_input_hold(2)
        for mode in ("auto", "compiled", "native"):
            harness = CycleAccurateHarness(addmult.calyx, held, "AddMult",
                                           mode=mode)
            with pytest.raises(SimulationError) as info:
                harness.run([{"a": 5, "b": 1, "c": 1},
                             {"a": 5, "b": 2, "c": 1},
                             {"a": 6, "b": 2, "c": 1}], spacing=1)
            assert str(info.value) == (
                "transactions overlap on input a at cycle 2; spacing 1 is "
                "below the initiation interval"), mode

    def test_outputs_outside_interval_are_not_captured(self):
        harness = harness_for(addmult_program(), "AddMult")
        results = harness.run([{"a": 2, "b": 3, "c": 4}])
        assert results[0].output("out") == 10

    def test_mismatch_reported_with_cycle_information(self):
        harness = harness_for(alu_program("pipelined"), "ALU")
        report = harness.check([{"op": 0, "l": 1, "r": 1}], lambda t: {"o": 999})
        assert not report.passed and "cycle" in report.mismatches[0]

    def test_check_reports_a_name_that_is_not_an_output(self):
        """An expected name the design has no output for is a mismatch
        naming that output, without a cycle; it used to raise."""
        harness = harness_for(addmult_program(), "AddMult")
        report = harness.check([{"a": 2, "b": 3, "c": 4}],
                               lambda t: {"nope": 1, "out": 10})
        assert report.mismatches == [
            "transaction 0: output nope expected 1 but AddMult has no "
            "output named 'nope'"]

    def test_run_results_behave_as_a_list(self):
        harness = harness_for(addmult_program(), "AddMult")
        transactions = [{"a": 2, "b": 3, "c": 4}, {"a": 1, "b": 1, "c": 1},
                        {"a": 5, "b": 0, "c": 9}]
        results = harness.run(transactions)
        assert len(results) == 3
        assert results[0].output("out") == 10
        assert results[-1].index == 2 and results[-1].start_cycle == 4
        assert [r.index for r in results[1:]] == [1, 2]
        first, second = list(results), list(results)
        assert all(a is b for a, b in zip(first, second))
        assert results[1] is first[1]
        results[0].outputs["out"] = 99
        assert results[0].output("out") == 99
        results[0].inputs["a"] = 7
        assert transactions[0] == {"a": 2, "b": 3, "c": 4}
        assert str(HarnessReport(results)) == "PASS: 3 transaction(s)"


class TestFuzzAndDifferential:
    def test_random_transactions_are_reproducible(self):
        harness = harness_for(mac_program("pipelined"), "MacPipe")
        assert random_transactions(harness, 5, seed=1) == random_transactions(
            harness, 5, seed=1)

    def test_fuzz_pipelined_mac_against_golden(self):
        harness = harness_for(mac_program("pipelined"), "MacPipe")
        report = fuzz_against_golden(
            harness, lambda t: {"out": (t["a"] * t["b"] + t["c"]) & 0xFFFFFFFF},
            count=25)
        assert report.passed, str(report)

    def test_differential_test_agrees_for_comb_vs_pipelined(self):
        reference = harness_for(mac_program("comb"), "MacComb")
        candidate = harness_for(mac_program("pipelined"), "MacPipe")
        transactions = random_transactions(reference, 20, seed=3)
        assert differential_test(reference, candidate, transactions).passed

    def test_random_transactions_cover_the_full_width_of_wide_ports(self):
        """Regression: a ``min(width, 30)`` cap used to keep every bit above
        bit 29 of a 64-bit port permanently zero."""
        from repro.core import ComponentBuilder, const

        build = ComponentBuilder("Wide")
        G = build.event("G", delay=1, interface="en")
        a = build.input("a", 64, G, G + 1)
        o = build.output("o", 64, G, G + 1)
        adder = build.instantiate("A", "Add", [64])
        build.connect(o, build.invoke("a0", adder, [G], [a, const(0, 64)])["out"])
        program = with_stdlib(components=[build.build()])

        harness = harness_for(program, "Wide")
        transactions = random_transactions(harness, 40, seed=1)
        values = [t["a"] for t in transactions]
        assert all(0 <= v < (1 << 64) for v in values)
        assert max(values) >= (1 << 32), "high bits of a 64-bit port never set"
        # ... and the simulated datapath really carries them end to end.
        report = harness.check(transactions[:5], lambda t: {"o": t["a"]})
        assert report.passed, str(report)

    def test_differential_test_generates_its_own_seeded_stream(self):
        """With no explicit transactions, ``differential_test`` draws from a
        per-stream RNG and records the seed for replay."""
        reference = harness_for(mac_program("comb"), "MacComb")
        candidate = harness_for(mac_program("pipelined"), "MacPipe")
        report = differential_test(reference, candidate, count=10, seed=7)
        assert report.passed, str(report)
        assert report.seed == 7
        assert report.transactions == 10
        assert "stimulus seed 7" in str(report)
        # Caller-supplied transactions leave the seed unset.
        explicit = differential_test(
            reference, candidate, random_transactions(reference, 5, seed=2))
        assert explicit.seed is None

    def test_differential_test_catches_stage_crossing_bug(self):
        """The buggy hand-written netlist agrees on isolated transactions but
        diverges under pipelined input — the Appendix B.1 bug class."""
        reference = harness_for(mac_program("comb"), "MacComb")
        buggy_calyx = buggy_stage_crossing_mac()
        spec = spec_from_signature(
            mac_program("pipelined").get("MacPipe").signature)
        spec.name = "mac_buggy"
        buggy = CycleAccurateHarness(buggy_calyx, spec, "mac_buggy")
        transactions = [{"a": 1, "b": 1, "c": 10}, {"a": 2, "b": 2, "c": 20},
                        {"a": 3, "b": 3, "c": 30}]
        report = differential_test(reference, buggy, transactions)
        assert report.divergences == [
            "transaction 0 ({'a': 1, 'b': 1, 'c': 10}): out reference=11 "
            "candidate=31",
            "transaction 1 ({'a': 2, 'b': 2, 'c': 20}): out reference=24 "
            "candidate=X",
            "transaction 2 ({'a': 3, 'b': 3, 'c': 30}): out reference=39 "
            "candidate=X",
        ]


class TestAudit:
    def test_audit_confirms_a_correct_interface(self):
        program = addmult_program()
        calyx = compile_program(program, "AddMult")
        spec = spec_from_signature(program.get("AddMult").signature)
        audit = audit_latency(calyx, spec, {"a": 3, "b": 4, "c": 5}, {"out": 17})
        assert audit.actual_latency == 2 and audit.latency_correct

    def test_audit_detects_wrong_claimed_latency(self):
        program = addmult_program()
        calyx = compile_program(program, "AddMult")
        spec = spec_from_signature(program.get("AddMult").signature).with_latency(1)
        audit = audit_latency(calyx, spec, {"a": 3, "b": 4, "c": 5}, {"out": 17})
        assert audit.reported_latency == 1
        assert audit.actual_latency == 2
        assert not audit.latency_correct


class TestSynthModel:
    def test_flatten_inlines_subcomponents(self):
        from repro.designs import conv2d_base_program
        calyx = compile_program(conv2d_base_program(), "Conv2d")
        flat = flatten(calyx)
        assert any(cell.name.startswith("ST.") for cell in flat.cells)

    def test_area_counts_dsps_and_registers(self):
        calyx = compile_program(alu_program("pipelined"), "ALU")
        area = estimate_area(flatten(calyx))
        assert area.dsps == 1          # one FastMult
        assert area.registers >= 64    # two 32-bit registers + FSM stages
        assert area.luts > 0

    def test_timing_breaks_paths_at_registers(self):
        calyx = compile_program(mac_program("pipelined"), "MacPipe")
        pipelined = estimate_timing(flatten(calyx))
        comb = estimate_timing(flatten(compile_program(mac_program("comb"), "MacComb")))
        assert comb.critical_path_ns > pipelined.critical_path_ns
        assert pipelined.fmax_mhz > comb.fmax_mhz

    def test_synthesize_produces_report(self):
        report = synthesize(compile_program(alu_program("pipelined"), "ALU"))
        assert report.luts > 0 and report.fmax_mhz > 0
        assert "LUTs" in str(report)
