"""The ``faults`` conformance way: byte-identical artifacts and traces
under injected persistence faults, with every degradation ledgered.

The store holds only native ``.so`` kernels, so without a C compiler no
fault can fire: the byte-identity oracle runs everywhere, and the checks
that the schedule bit run only where ``cc`` builds kernels."""

from collections import Counter

import pytest

from repro.conformance import CoverageLedger
from repro.conformance.faults import (
    DEFAULT_RATES,
    run_fault_conformance,
    run_fault_schedule,
)
from repro.core.faults import FAULT_KINDS
from repro.sim import compiler_available

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler on host: nothing is "
                                     "stored, so no store fault can fire")

#: Aggressive rates so a single short test run reliably fires faults on
#: the one stored artifact: the native ``.so`` build, publish and read.
_HOT_RATES = {
    "torn-write": 0.5, "bit-flip": 0.5, "enospc": 0.3, "eperm": 0.3,
    "stale-lock": 0.5, "crash-rename": 0.4, "cc-hang": 0.5,
}


def test_default_rates_cover_every_in_process_kind():
    assert set(DEFAULT_RATES) == set(FAULT_KINDS)


def test_faulted_runs_reproduce_the_baseline_bytes():
    result = run_fault_conformance(1, transactions=5, rates=_HOT_RATES)
    assert result.passed, result.divergences
    if compiler_available():
        assert result.degradations  # the schedule actually bit
        assert any(reason.startswith("injected:")
                   for reason in result.degradations)


@needs_cc
def test_so_publish_path_fires_every_store_fault():
    """With ``cc-hang`` held at 0 every seed builds and publishes its
    ``.so``, and the publish path alone fires each store-write fault."""
    rates = dict(_HOT_RATES, **{"cc-hang": 0.0})
    fired = Counter()
    for result in run_fault_schedule(0, 4, transactions=5, rates=rates):
        assert result.passed, (result.seed, result.divergences)
        fired.update(result.degradations)
    for kind in ("torn-write", "crash-rename", "enospc", "eperm"):
        assert fired[f"injected:{kind}"] > 0, dict(fired)


def test_fault_schedule_is_deterministic():
    first = run_fault_conformance(2, fault_seed=9, transactions=5,
                                  rates=_HOT_RATES)
    second = run_fault_conformance(2, fault_seed=9, transactions=5,
                                   rates=_HOT_RATES)
    assert first.passed and second.passed
    assert first.degradations == second.degradations


def test_coverage_record_carries_the_fault_evidence():
    result = run_fault_conformance(1, fault_seed=7, transactions=5,
                                   rates=_HOT_RATES)
    record = result.coverage
    assert record is not None
    assert record.fault_seed == 7
    assert record.fault_degradations == dict(result.degradations)
    ledger = CoverageLedger([record])
    assert ledger.fault_runs() == 1
    assert ledger.fault_degradation_histogram() == record.fault_degradations
    assert "fault-injected runs: 1/1" in ledger.summary()


@pytest.mark.deep
def test_fault_schedule_sweep():
    results = run_fault_schedule(0, 8, transactions=6, rates=_HOT_RATES)
    assert all(result.passed for result in results), [
        (r.seed, r.divergences) for r in results if not r.passed]
    if compiler_available():
        assert any(result.degradations for result in results)
