"""Compiled-kernel equivalence over the golden corpus.

Every committed corpus entry is replayed through the generated-kernel
engine (``mode="compiled"``) and must trace bit-identically — values *and*
X planes — to the scheduled and fixpoint interpreters, for scalar runs and
for lane batches (one kernel run per stream).  A deliberately irregular (self-looping) program
pins down the automatic interpreter fallback: its trace must still match
the reference engines, with the fallback reason recorded in the coverage
ledger.
"""

from pathlib import Path

import pytest

from repro.calyx.ir import Assignment, CalyxComponent, CalyxProgram, CellPort, Guard, PortSpec
from repro.conformance import load_entries, replay_entry, run_conformance
from repro.conformance.coverage import CoverageLedger
from repro.conformance.differential import default_engines, traces_equal
from repro.core.session import CompilationSession
from repro.harness import harness_for, random_transactions
from repro.sim import Simulator

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
LANES = 3
TRANSACTIONS = 6


def _calyx_and_stimuli(generated):
    session = CompilationSession(generated.program)
    calyx = session.calyx(generated.spec.name)
    harness = harness_for(generated.program, generated.spec.name, calyx=calyx)
    return calyx, [
        harness._schedule(
            random_transactions(harness, TRANSACTIONS, seed=seed))[0]
        for seed in range(LANES)
    ]


@pytest.mark.parametrize("path,entry",
                         load_entries(CORPUS_DIR),
                         ids=[p.name for p, _ in load_entries(CORPUS_DIR)])
def test_corpus_compiled_scalar_bit_identical(path, entry):
    generated = replay_entry(entry)
    calyx, stimuli = _calyx_and_stimuli(generated)
    name = generated.spec.name
    compiled = Simulator(calyx, name, mode="compiled")
    for mode in ("auto", "fixpoint"):
        reference = Simulator(calyx, name, mode=mode)
        for stimulus in stimuli:
            compiled.reset()
            reference.reset()
            assert traces_equal(compiled.run_batch(stimulus),
                                reference.run_batch(stimulus)), \
                f"{path.name}: compiled diverged from {mode}"
    assert compiled.uses_kernel(), \
        f"{path.name}: kernel fell back: {compiled.kernel_fallback_reason}"


@pytest.mark.parametrize("path,entry",
                         load_entries(CORPUS_DIR),
                         ids=[p.name for p, _ in load_entries(CORPUS_DIR)])
def test_corpus_compiled_lanes_bit_identical(path, entry):
    generated = replay_entry(entry)
    calyx, stimuli = _calyx_and_stimuli(generated)
    name = generated.spec.name
    compiled = Simulator(calyx, name, mode="compiled")
    lanes = compiled.run_lanes(stimuli)
    assert compiled.uses_kernel(), compiled.kernel_fallback_reason
    scalar = Simulator(calyx, name, mode="auto")
    for lane, stimulus in enumerate(stimuli):
        scalar.reset()
        assert traces_equal(lanes[lane], scalar.run_batch(stimulus)), \
            f"{path.name}: compiled lane {lane} diverged from scalar"


def test_corpus_four_engine_matrix_and_kernel_coverage():
    """The full differential matrix (scheduled, fixpoint, compiled, native)
    over a corpus entry records the kernel and native paths in the
    coverage ledger."""
    from repro.sim import compiler_available

    entries = load_entries(CORPUS_DIR)
    generated = replay_entry(entries[0][1])
    result = run_conformance(generated, transactions=4, seed=1, lanes=2)
    assert result.passed, str(result)
    assert set(default_engines()) == {"scheduled", "fixpoint", "compiled",
                                      "native"}
    assert "compiled" in result.engines
    assert "native" in result.engines
    assert result.coverage.kernel
    assert result.coverage.kernel_fallback is None
    ledger = CoverageLedger([result.coverage])
    assert ledger.kernel_paths() == {"kernel": 1, "interpreter": 0,
                                     "not-attempted": 0}
    assert "kernel paths" in ledger.summary()
    if compiler_available():
        assert result.coverage.native, result.coverage.native_fallback
        assert result.coverage.native_lanes, \
            result.coverage.native_lanes_fallback
        assert "native-lanes" in result.engines
        assert ledger.native_paths() == {"native": 1, "fallback": 0,
                                         "not-attempted": 0,
                                         "lane-native": 1}
        assert "native paths" in ledger.summary()
    else:
        assert result.coverage.native_fallback is not None
        assert result.coverage.native_lanes is False
        assert result.coverage.native_lanes_fallback is not None


def _self_loop_program():
    component = CalyxComponent(
        "Loopy", inputs=[PortSpec("go", 1)], outputs=[PortSpec("o", 8)])
    component.add_wire(Assignment(CellPort(None, "o"), 5))
    component.add_wire(Assignment(CellPort(None, "o"), 7,
                                  Guard((CellPort(None, "o"),))))
    program = CalyxProgram(entrypoint="Loopy")
    program.add(component)
    return program


def test_fallback_reason_netlist_still_traces_identically():
    """A netlist the scheduler rejects (self-loop) runs the compiled engine
    on the interpreter fallback, trace-identical to fixpoint, and the
    reason lands in the kernel coverage fields."""
    program = _self_loop_program()
    stimulus = [{"go": 1}, {"go": 0}, {}]
    compiled = Simulator(program, mode="compiled")
    trace = compiled.run_batch(stimulus)
    assert not compiled.uses_kernel()
    assert "self-loop" in compiled.kernel_fallback_reason
    assert traces_equal(
        trace, Simulator(program, mode="fixpoint").run_batch(stimulus))
    lanes = Simulator(program, mode="compiled").run_lanes(
        [stimulus, stimulus])
    scalar = Simulator(program, mode="fixpoint")
    for lane_trace in lanes:
        scalar.reset()
        assert traces_equal(lane_trace, scalar.run_batch(stimulus))
