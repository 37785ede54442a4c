"""The ``faults`` conformance way: fault-injected persistence runs.

The crash-safety claim of :mod:`repro.core.store` is behavioral, not
structural: under *any* injected fault schedule the toolchain may lose
cache hits, but it must never lose correctness.  This way checks exactly
that, per seed:

1. **Baseline** — compile and simulate the generated design with no store
   and no faults armed; capture the Calyx text, the Verilog text and the
   full simulation trace.
2. **Cold faulted run** — a fresh :class:`~repro.core.store.ArtifactStore`
   is installed as the process default and a deterministic
   :class:`~repro.core.faults.FaultPlan` (seeded by ``fault_seed``) is
   armed; all in-memory caches are cleared and the same design is compiled
   and simulated from scratch.  The store holds only the native tier's
   ``.so`` kernels, so the injector races their build and publish (hung
   ``cc``, torn writes, ENOSPC, EPERM, stale locks, crash-between-write-
   and-rename).
3. **Warm faulted run** — in-memory caches are cleared again but the store
   (now holding whatever survived the cold run's faults) stays; the design
   is compiled and simulated once more, exercising the verify-on-read and
   quarantine paths against a ``.so`` that may have been torn or flipped.

All three runs must produce **byte-identical** Calyx, Verilog and traces.
Every absorbed fault is recorded — the store's degradation log plus the
injector's fired list — and lands in the coverage ledger as the record's
``fault_degradations`` histogram, so a fault schedule that silently
exercised nothing is visible.  Without a C compiler nothing reaches the
store: the runs still must agree byte for byte, but no fault can fire.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import faults as fault_module
from ..core.faults import FaultPlan, inject
from ..core.session import CompilationSession
from ..core.store import ArtifactStore, reset_default_store, set_default_store
from ..harness.driver import harness_for
from ..harness.fuzz import random_transactions
from ..sim.codegen import clear_kernel_cache
from ..sim.native import clear_native_cache
from ..sim.simulator import Simulator
from .coverage import CoverageRecord
from .generator import GeneratedProgram, GeneratorConfig, generate

__all__ = ["DEFAULT_RATES", "FaultConformanceResult",
           "run_fault_conformance", "run_fault_schedule"]

#: Per-consult fire probabilities for the randomized schedules the CLI
#: runs.  Every store I/O site consults the injector, so even these
#: moderate rates fire multiple faults per compile.
DEFAULT_RATES: Dict[str, float] = {
    "torn-write": 0.08,
    "bit-flip": 0.08,
    "enospc": 0.04,
    "eperm": 0.04,
    "stale-lock": 0.08,
    "crash-rename": 0.06,
    "cc-hang": 0.25,
}


@dataclass
class FaultConformanceResult:
    """One seed's verdict: did every faulted run reproduce the fault-free
    artifacts and trace byte-for-byte, and which faults were absorbed."""

    seed: int
    fault_seed: int
    name: str
    divergences: List[str] = field(default_factory=list)
    #: reason -> count: store degradations plus ``injected:<kind>`` marks.
    degradations: Dict[str, int] = field(default_factory=dict)
    coverage: Optional[CoverageRecord] = None

    @property
    def passed(self) -> bool:
        return not self.divergences

    def repro_command(self) -> str:
        return (f"python -m repro.conformance --faults 1 "
                f"--start {self.seed} --fault-seed {self.fault_seed}")


def _clear_memory_caches() -> None:
    clear_kernel_cache()
    clear_native_cache()


def _artifacts_and_trace(generated: GeneratedProgram,
                         stimulus) -> Tuple[str, str, str]:
    """One full pipeline pass: Calyx text, Verilog text and the rendered
    simulation trace of the entrypoint under ``stimulus``.  ``mode="native"``
    requests the top execution tier, so the native ``.so`` store is in play
    and a hung ``cc`` or failed store publish degrades down the tier ladder
    — visibly in the degradation log, invisibly in the returned bytes."""
    name = generated.entrypoint
    session = CompilationSession(generated.program)
    calyx = session.calyx(name)
    verilog = session.verilog(name)
    trace = Simulator(calyx, name, mode="native").run_batch(stimulus)
    return str(calyx), verilog, repr(trace)


def _bin_reason(reason: str) -> str:
    """Collapse a store degradation reason (which embeds the exact key and
    errno for debugging) into a stable histogram bin."""
    for token in ("enospc", "eperm"):
        if token in reason:
            return f"write-failed:{token}"
    if "crash between write and rename" in reason:
        return "crash-before-publish"
    if "stale lock" in reason:
        return "stale-lock-skip"
    return reason.split(" at ")[0]


def _merge_degradations(result: FaultConformanceResult,
                        store: ArtifactStore,
                        injector) -> None:
    for degradation in store.degradations:
        reason = _bin_reason(degradation["reason"])
        result.degradations[reason] = result.degradations.get(reason, 0) + 1
    if injector is not None:
        for kind, _site in injector.fired:
            key = f"injected:{kind}"
            result.degradations[key] = result.degradations.get(key, 0) + 1


def run_fault_conformance(seed: int,
                          fault_seed: Optional[int] = None,
                          transactions: int = 8,
                          lanes: int = 1,
                          config: Optional[GeneratorConfig] = None,
                          rates: Optional[Dict[str, float]] = None,
                          store_root: Optional[str] = None,
                          ) -> FaultConformanceResult:
    """Run one seed through the baseline / cold-faulted / warm-faulted
    triple described in the module docstring."""
    fault_seed = seed if fault_seed is None else fault_seed
    generated = generate(seed, config or GeneratorConfig())
    result = FaultConformanceResult(seed=seed, fault_seed=fault_seed,
                                    name=generated.spec.name)

    scratch = store_root or tempfile.mkdtemp(prefix="repro-faults-")
    token = set_default_store(None)
    fault_module.reset()
    try:
        # 1. Fault-free baseline: no store, warm nothing.
        _clear_memory_caches()
        base_calyx, base_verilog, base_trace = None, None, None
        harness = harness_for(generated.program, generated.entrypoint)
        stream = random_transactions(harness, transactions, seed=seed)
        stimulus, _starts = harness._schedule(stream)
        base_calyx, base_verilog, base_trace = _artifacts_and_trace(
            generated, stimulus)

        # 2 + 3. Cold then warm runs under an armed fault plan against a
        # fresh store.  The warm run reuses the (possibly torn) store.
        store = ArtifactStore(scratch)
        set_default_store(store)
        plan = FaultPlan(seed=fault_seed, rates=dict(rates or DEFAULT_RATES))
        for label in ("cold", "warm"):
            _clear_memory_caches()
            with inject(plan) as injector:
                try:
                    calyx, verilog, trace = _artifacts_and_trace(
                        generated, stimulus)
                except Exception as error:  # noqa: BLE001 - verdict, not crash
                    result.divergences.append(
                        f"{label}: raised {type(error).__name__}: {error}")
                    _merge_degradations(result, store, injector)
                    continue
            if calyx != base_calyx:
                result.divergences.append(f"{label}: calyx differs")
            if verilog != base_verilog:
                result.divergences.append(f"{label}: verilog differs")
            if trace != base_trace:
                result.divergences.append(f"{label}: trace differs")
            _merge_degradations(result, store, injector)
            store.degradations.clear()

        coverage = CoverageRecord.from_program(generated, seed=seed)
        coverage.transactions = transactions
        coverage.lanes = lanes
        coverage.divergences = len(result.divergences)
        coverage.fault_seed = fault_seed
        coverage.fault_degradations = dict(sorted(result.degradations.items()))
        result.coverage = coverage
    finally:
        fault_module.reset()
        reset_default_store(token)
        if store_root is None:
            shutil.rmtree(scratch, ignore_errors=True)
    return result


def run_fault_schedule(start: int,
                       count: int,
                       transactions: int = 8,
                       config: Optional[GeneratorConfig] = None,
                       rates: Optional[Dict[str, float]] = None,
                       fault_seed: Optional[int] = None,
                       ) -> List[FaultConformanceResult]:
    """``count`` randomized fault schedules over seeds ``[start,
    start+count)``; each seed gets its own schedule (``fault_seed`` pins
    one schedule for repro)."""
    results = []
    for offset in range(count):
        seed = start + offset
        results.append(run_fault_conformance(
            seed,
            fault_seed=fault_seed if fault_seed is not None else seed,
            transactions=transactions, config=config, rates=rates))
    return results
