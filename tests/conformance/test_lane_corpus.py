"""Lane-batch-vs-scalar equivalence over the golden corpus.

Every committed corpus entry is replayed through ``run_lanes`` with several
independently seeded stimulus streams, and each lane's trace must be
bit-identical — values *and* X planes — to a scalar run of that stream.
Every lane path is covered: the native lane entry (``mode="native"``) and
the one-scalar-run-per-stream fallback on the levelized schedule
(``mode="auto"``) and the sweep loop (``mode="fixpoint"``).
"""

from pathlib import Path

import pytest

from repro.conformance import load_entries, replay_entry, run_conformance
from repro.conformance.differential import traces_equal
from repro.core.session import CompilationSession
from repro.harness import harness_for, random_transactions
from repro.sim import Simulator, compiler_available

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
LANES = 4
TRANSACTIONS = 6


def _stimuli(generated):
    session = CompilationSession(generated.program)
    calyx = session.calyx(generated.spec.name)
    harness = harness_for(generated.program, generated.spec.name, calyx=calyx)
    return calyx, [
        harness._schedule(
            random_transactions(harness, TRANSACTIONS, seed=seed))[0]
        for seed in range(LANES)
    ]


@pytest.mark.parametrize("mode", ["auto", "fixpoint", "native"])
@pytest.mark.parametrize("path,entry",
                         load_entries(CORPUS_DIR),
                         ids=[p.name for p, _ in load_entries(CORPUS_DIR)])
def test_corpus_lanes_bit_identical_to_scalar(path, entry, mode):
    generated = replay_entry(entry)
    calyx, stimuli = _stimuli(generated)
    name = generated.spec.name
    lanes = Simulator(calyx, name, mode=mode)
    lane_traces = lanes.run_lanes(stimuli)
    if mode == "native":
        # Native-eligible entries must take the lane entry (black boxes and
        # hosts without a compiler fall back, with the reason recorded).
        assert lanes.uses_native_lanes() == lanes.native_active(), \
            lanes.native_fallback_reason
    scalar = Simulator(calyx, name, mode="auto" if mode == "native" else mode)
    for lane, stimulus in enumerate(stimuli):
        scalar.reset()
        assert traces_equal(lane_traces[lane], scalar.run_batch(stimulus)), \
            f"{path.name}: lane {lane} diverged from its scalar run ({mode})"


def test_conformance_runs_the_packed_way():
    entries = load_entries(CORPUS_DIR)
    generated = replay_entry(entries[0][1])
    result = run_conformance(generated, transactions=4, seed=1, lanes=3)
    assert result.passed, str(result)
    assert result.coverage.lanes == 3
    if compiler_available():
        assert result.coverage.native_lanes, \
            result.coverage.native_lanes_fallback
        assert "native-lanes" in result.engines
    else:
        assert result.coverage.native_lanes is False
        assert result.coverage.native_lanes_fallback is not None


def test_conformance_lanes_one_disables_the_packed_way():
    entries = load_entries(CORPUS_DIR)
    generated = replay_entry(entries[0][1])
    result = run_conformance(generated, transactions=4, seed=1, lanes=1)
    assert result.passed, str(result)
    assert "native-lanes" not in result.engines
    assert result.coverage.lanes == 1
    assert result.coverage.native_lanes is None
