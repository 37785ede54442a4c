"""The conformance *frontend* way: generator designs through the matrix.

:func:`run_frontend_conformance` takes one :class:`~repro.core.frontend`
design source (Aetherling, PipelineC, Reticle — or a Filament bundle) and
subjects it to the same discipline fuzz-generated programs get, plus the
checks only a frontend can fail:

1. **fingerprint stability** — regenerating the design must reproduce the
   bundle fingerprint exactly, and the regenerated design must compile to
   Verilog again through a second calyx-entry session;
2. **engine matrix** — identical traces from every engine tier under the
   stimulus scheduled by the frontend's *reported* interface spec;
3. **reported-spec audit** — :func:`~repro.harness.driver.audit_latency`
   measures the real latency/hold against the claim.  A bundle that claims
   correctly (``claim_correct=True``) must audit clean *and* match its
   golden model transaction-for-transaction; a deliberately claim-buggy
   bundle (Aetherling's underutilized points) must be **caught** — an audit
   that agrees with a wrong claim is itself a divergence;
4. **Verilog loop** — the emitted Verilog re-imports to a netlist whose
   trace is byte-identical to the engine matrix's reference.

The result rides the ordinary :class:`ConformanceResult` / coverage-ledger
plumbing; the record's ``frontend`` and ``verilog_reimport`` fields say
which frontend the design entered through and whether the loop closed.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..core.errors import FilamentError, SimulationError
from ..core.lower.verilog_frontend import roundtrip_divergences
from ..harness.driver import audit_latency
from ..harness.fuzz import random_transactions
from .coverage import CoverageRecord
from .differential import (ConformanceResult, EngineFactory, _run_engines,
                           default_engines)

__all__ = ["run_frontend_conformance", "frontend_conformance_sweep"]

#: Warm-up stream length for the latency audit (its tail is probed).  Long
#: enough that windowed kernels (sharpen's 3x3 neighbourhood) leave the
#: zero boundary region before the probe.
_AUDIT_TRANSACTIONS = 12

#: How many tail transactions the audit probes.  A single probe with a
#: degenerate expected value (e.g. a clamped-to-zero sharpen output) would
#: match trivially at offset 0; every probed transaction must match at the
#: *same* offset, which pins the latency down.
_AUDIT_PROBES = 3


def _frontend_coverage(bundle, transactions: int) -> CoverageRecord:
    """The static half of a frontend run's coverage record: generator
    bundles carry no op graph, so the record is interface-shaped."""
    spec = bundle.spec
    widths = sorted({port.width for port in
                     (list(spec.inputs) + list(spec.outputs))}) if spec else []
    return CoverageRecord(
        name=bundle.name,
        ii=spec.initiation_interval if spec else 1,
        widths=widths,
        transactions=transactions,
        regime=bundle.frontend,
        frontend=bundle.frontend,
    )


def _check_regeneration(source, cold_fingerprint: str,
                        divergences: List[str]) -> None:
    """Regenerate the design and recompile: the fingerprint must reproduce
    and the regenerated design must compile to Verilog."""
    warm = source.bundle()
    if warm.fingerprint != cold_fingerprint:
        divergences.append(
            f"frontend: regenerating {source.name} changed the bundle "
            f"fingerprint ({cold_fingerprint[:12]} -> "
            f"{warm.fingerprint[:12]}); generator output is unstable")
        return
    try:
        warm.session().verilog(warm.name)
    except FilamentError as error:
        divergences.append(f"frontend: warm recompile failed: {error}")


def _check_audit(bundle, stream: List[dict], expected: List[dict],
                 divergences: List[str]) -> None:
    """The reported-interface audit: the measurement must agree with the
    bundle's own claim about its claim."""
    try:
        audit = audit_latency(bundle.calyx, bundle.spec, stream, expected,
                              component=bundle.name)
    except (FilamentError, SimulationError) as error:
        divergences.append(f"frontend: latency audit of {bundle.name} "
                           f"failed to run: {error}")
        return
    clean = audit.latency_correct and audit.hold_correct
    if bundle.claim_correct and not clean:
        divergences.append(
            f"frontend: {bundle.name} claims a correct interface but the "
            f"audit disagrees (reported latency {audit.reported_latency}, "
            f"actual {audit.actual_latency}; reported hold "
            f"{audit.reported_hold}, required {audit.required_hold})")
    elif not bundle.claim_correct and clean:
        divergences.append(
            f"frontend: {bundle.name} deliberately misreports its "
            f"interface, but the audit failed to catch it (claimed latency "
            f"{audit.reported_latency} / hold {audit.reported_hold} "
            f"measured as correct)")


def run_frontend_conformance(source,
                             transactions: int = 8,
                             seed: int = 0,
                             engines: Optional[Dict[str, EngineFactory]] = None,
                             reimport: bool = True) -> ConformanceResult:
    """Run the frontend conformance way over one design source."""
    engines = dict(engines) if engines is not None else default_engines()
    bundle = source.bundle()
    result = ConformanceResult(
        name=bundle.name, seed=None, transactions=transactions,
        stimulus_seed=seed, engines=sorted(engines),
        matrix_engines=sorted(engines), lanes=1, roundtrip=False,
        incremental=False, reimport=reimport,
    )
    coverage = _frontend_coverage(bundle, transactions)
    result.coverage = coverage
    divergences = result.divergences

    # 1. Cold compile through the session, then fingerprint stability and
    #    a second compile of a regenerated bundle.
    session = bundle.session()
    try:
        calyx = session.calyx(bundle.name)
        session.verilog(bundle.name)
    except FilamentError as error:
        divergences.append(f"frontend: {bundle.name} failed to compile "
                           f"through its session: {error}")
        coverage.divergences = len(divergences)
        return result
    _check_regeneration(source, bundle.fingerprint, divergences)

    # 2. The engine matrix under the reported spec's schedule.
    harness = bundle.harness()
    stream = random_transactions(harness, transactions, seed=seed)
    stimulus, starts = harness._schedule(stream)

    traces, _, reference_name = _run_engines(
        {name: partial(engines[name], calyx, bundle.name)
         for name in sorted(engines)}, stimulus, divergences)

    # 3. Golden model + reported-spec audit.
    if bundle.golden is not None:
        expected = bundle.golden(stream)
        if bundle.claim_correct and reference_name is not None:
            reference = traces[reference_name]
            for index, (start, wants) in enumerate(zip(starts, expected)):
                for port in harness.spec.outputs:
                    if port.name not in wants:
                        continue
                    capture = start + port.start
                    got = reference[capture].get(port.name) \
                        if capture < len(reference) else None
                    if got != wants[port.name]:
                        divergences.append(
                            f"frontend golden: transaction {index} output "
                            f"{port.name} expected {wants[port.name]} got "
                            f"{got} at cycle {capture}")
        audit_stream = random_transactions(harness, _AUDIT_TRANSACTIONS,
                                           seed=seed + 1)
        audit_expected = bundle.golden(audit_stream)[-_AUDIT_PROBES:]
        _check_audit(bundle, audit_stream, audit_expected, divergences)

    # 4. The Verilog loop.
    if reimport and reference_name is not None:
        problems = roundtrip_divergences(calyx, bundle.name, stimulus,
                                         reference=traces[reference_name])
        coverage.verilog_reimport = not problems
        if not problems:
            result.engines = result.engines + ["reimported"]
        divergences.extend(problems)

    coverage.divergences = len(divergences)
    return result


def frontend_conformance_sweep(frontend: Optional[str] = None,
                               full: bool = False,
                               transactions: int = 8,
                               seed: int = 0,
                               engines: Optional[Dict[str, EngineFactory]] = None,
                               reimport: bool = True) -> List[ConformanceResult]:
    """Run the frontend way over every registered generator design (or one
    ``frontend``'s designs); see
    :func:`repro.core.frontend.generator_sources`."""
    from ..core.frontend import generator_sources
    return [run_frontend_conformance(source, transactions=transactions,
                                     seed=seed, engines=engines,
                                     reimport=reimport)
            for source in generator_sources(frontend, full=full)]
