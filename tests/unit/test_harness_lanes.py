"""Lane-batch harness plumbing: ``run_lanes`` on the cycle-accurate
driver, multi-stream fuzzing, the pinned stimulus stream, and
fallback-reason reporting in ``DifferentialReport``."""

import hashlib
import itertools

import pytest

from repro.calyx.ir import (
    Assignment,
    CalyxComponent,
    CalyxProgram,
    Cell,
    CellPort,
    PortSpec,
)
from repro.conformance.generator import generate
from repro.core.errors import SimulationError
from repro.designs import addmult_program
from repro.designs.golden import addmult
from repro.harness import (
    CycleAccurateHarness,
    InterfaceSpec,
    PortTiming,
    harness_for,
    random_transactions,
)
from repro.harness.fuzz import (
    _CHECK_CHUNK,
    differential_test,
    fuzz_against_golden,
)
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
        identical transactions, no extra cycles, a captured X, lanes whose
        values do not fit an ``array('Q')`` column beside lanes whose
        values do, and zero-length lanes.  Below the II, a batch raises
        the overlap error its first failing stream raises alone."""
        same = [{"a": 3, "b": 5, "c": 7}] * 3
        # Lanes whose values do not all fit an ``array('Q')`` column
        # (negative, 2**64 or more, X, a missing port) beside lanes whose
        # values do.
        unpacked = [STREAM, [{"a": -3, "b": 5, "c": 7}, STREAM[1]],
                    [STREAM[0], {"a": 2 ** 64 + 9, "b": 5, "c": -1}],
                    [{"a": X, "b": 5, "c": 7}, STREAM[1]],
                    [{"a": 1, "c": 7}, STREAM[0], {"b": 2}], STREAM[:1]]
        for mode in MODES:
            harness = _addmult_harness(mode, width=8)
            undriven = _without_input(harness, "c")
            assert random_transactions(harness, 2, seed=1) == STREAM
            streams = [random_transactions(harness, count, seed=seed)
                       for seed, count in enumerate((5, 3, 0, 7))]
            cases = (
                (harness, streams, {}, None),
                (harness, unpacked, {}, None),
                (harness, [[], STREAM, []], {}, None),
                (harness, [[], []], {"spacing": 3}, []),
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
            # Below the II, windows collide.  The batch raises the error of
            # the first failing stream, naming the cycle within that
            # stream, exactly as that stream's own run does.
            clash = [{"a": 1, "b": 2, "c": 3}, {"a": 1, "b": 2, "c": 4}]
            with pytest.raises(SimulationError) as alone:
                harness.run(clash, spacing=0)
            assert str(alone.value) == (
                "transactions overlap on input c at cycle 1; spacing 0 is "
                "below the initiation interval"), mode
            with pytest.raises(SimulationError) as batch:
                harness.run_lanes([same, clash, [STREAM[0], STREAM[0],
                                                 STREAM[1]]], spacing=0)
            assert str(batch.value) == str(alone.value), mode

    def test_fuzz_against_golden_with_lanes(self):
        harness = _addmult_harness()
        report = fuzz_against_golden(harness, _golden, count=6, seed=3,
                                     lanes=5)
        assert report.passed, str(report)
        assert report.transactions == 30
        assert report.seed == 3

    def test_fuzz_lane_divergences_name_the_lane(self):
        """Divergence messages, byte for byte on every tier: a wrong
        value, a golden key that is not an output (it reads X), an X
        captured because input ``c`` is never driven, an expected X,
        goldens whose key sets differ, and mismatches at the edges of the
        check's column chunks.  The expected lists are those of the
        per-transaction check loop the chunked compare replaced."""
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
            # Expecting X never matches a captured X.
            report = fuzz_against_golden(
                _without_input(harness, "c"), lambda t: {"out": X},
                count=2, seed=4)
            assert report.divergences == [
                "transaction 0 ({'a': 60, 'b': 77}): out expected X got X",
                "transaction 1 ({'a': 26, 'b': 184}): out expected X got X",
            ], mode
            # Ragged goldens: one chunk where a dict has a key the first
            # lacks, one where the first has a key the others lack and
            # another dict lacks ``out``.
            calls = itertools.count()

            def ragged(transaction):
                call = next(calls)
                want = {"out": _golden(transaction)["out"] & 0xFF}
                if call in (1, 4):
                    want["extra"] = 5
                elif call == 6:
                    want = {"nope": call}
                return want

            report = fuzz_against_golden(harness, ragged, count=4, seed=5,
                                         lanes=2)
            assert report.divergences == [
                "lane 0 transaction 1 ({'a': 91, 'b': 203, 'c': 176}): "
                "extra expected 5 got X",
                "lane 1 transaction 0 ({'a': 203, 'b': 146, 'c': 210}): "
                "extra expected 5 got X",
                "lane 1 transaction 2 ({'a': 66, 'b': 9, 'c': 0}): "
                "nope expected 6 got X",
            ], mode
            # A stream of four check chunks, each wrong at one edge only:
            # the stream's first and last transactions and both sides of
            # the second chunk boundary.
            assert _CHECK_CHUNK == 256
            wrong = {0, 511, 512, 999}
            calls = itertools.count()

            def off_by_one(transaction):
                want = _golden(transaction)["out"] & 0xFF
                return {"out": want ^ 1 if next(calls) in wrong else want}

            report = fuzz_against_golden(harness, off_by_one, count=1000,
                                         seed=6)
            assert report.divergences == [
                "transaction 0 ({'a': 203, 'b': 146, 'c': 210}): "
                "out expected 153 got 152",
                "transaction 511 ({'a': 143, 'b': 218, 'c': 252}): "
                "out expected 195 got 194",
                "transaction 512 ({'a': 155, 'b': 60, 'c': 134}): "
                "out expected 219 got 218",
                "transaction 999 ({'a': 106, 'b': 198, 'c': 25}): "
                "out expected 20 got 21",
            ], mode


def _wide_harness():
    """A harness over input ports of 1 to 256 bits, every one held for
    the first cycle of a transaction."""
    widths = {"w1": 1, "w64": 64, "w65": 65, "w128": 128, "w129": 129,
              "w256": 256}
    component = CalyxComponent(
        "wide", inputs=[PortSpec(name, width)
                        for name, width in widths.items()],
        outputs=[PortSpec("o", 65)])
    component.add_wire(Assignment(CellPort(None, "o"),
                                  CellPort(None, "w65")))
    program = CalyxProgram(entrypoint="wide")
    program.add(component)
    spec = InterfaceSpec(
        "wide", [PortTiming(name, width, 0, 1)
                 for name, width in widths.items()],
        [PortTiming("o", 65, 0, 1)], {}, 1)
    return CycleAccurateHarness(program, spec)


#: sha256 of ``repr`` of the streams :func:`_stimulus_digest` draws.  The
#: values are those of the per-transaction draw loop these streams were
#: first recorded with; every recorded seed and printed repro command
#: depends on them.
STIMULUS_DIGESTS = {
    "addmult8":
        "3dcb5e7a40a8ef19bd72bcff13cf6e113ccaa50e97f5fec58c115cc0caa88f77",
    "addmult32":
        "3e00abab8cb1b6177ee765f131e84c70d0532ebd39f77584a7bd606b73d990f0",
    "gen0": "4cad71696bc54c7d88d095af22ef69938305bb2767110a35bbdad8f2e885ae02",
    "gen2": "4a608d65a7a596cec5e0dd16a407295129736c6f4844ebf45765d068f6c5569c",
    "gen3": "9d92bc621143168b190e8e13c72e22f7c040df47c6858a54934e2a6ef5b7e696",
    "gen4": "b785c7e15c5beef7ff8581cd67ee7de663b1c3039b840007e66a710f8a591baf",
    "gen5": "3210ee921eddfe4b5080d0453a5df89b33b3658f52d4d1a0584d40556bb01bc7",
    "gen7": "ca232da917e0043cd842a1453cb73901beb24ce8cb4835bf8b6b50b6775b814b",
    "gen8": "d930e4d537ff33bc93ca322df05588da300e3d0b5b2f50259e00d46c42bab60c",
    "gen9": "fafa60d62c5d7a8f16af1f26bb95fc1ca26dfd35f4e27a039fe5c18c30bbbf2a",
    "gen10":
        "2bad08da1f32f3073becbbc1b1493d546df2b132f57636b7192ad92b30dc6708",
    "gen11":
        "37b8dd1c358d4f18cb800ad0941646b1e723e9758810846c013af30e65d4d2b7",
    "wide": "ee5f209fe019f745b0d885299d01ec9d829ef1e4cb56687eea15419aaeb5ec32",
}


def _stimulus_digest(harness):
    """Counts 0, 1, 5 and 64 at two seeds, with every port and with the
    first port excluded."""
    first = harness.spec.inputs[0].name
    streams = [random_transactions(harness, count, seed=seed,
                                   exclude=exclude)
               for count in (0, 1, 5, 64)
               for seed in (0, 7)
               for exclude in ((), (first,))]
    return hashlib.sha256(repr(streams).encode()).hexdigest()


def test_random_transactions_stream_is_pinned():
    """The stimulus stream of a seed never changes: AddMult at 8 and 32
    bits, generator designs with 1- to 64-bit ports and a 65-256-bit
    width-boundary design."""
    harnesses = {"addmult8": _addmult_harness(width=8),
                 "addmult32": _addmult_harness(width=32),
                 "wide": _wide_harness()}
    for seed in (0, 2, 3, 4, 5, 7, 8, 9, 10, 11):
        generated = generate(seed)
        harnesses[f"gen{seed}"] = harness_for(generated.program,
                                              generated.entrypoint)
    assert {label: _stimulus_digest(harness)
            for label, harness in harnesses.items()} == STIMULUS_DIGESTS


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
