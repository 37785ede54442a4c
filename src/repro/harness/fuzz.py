"""Random stimulus generation and differential testing.

Appendix B.1 of the paper validates the pipelined floating-point adder by
"a fuzzing harness to ensure that the outputs of the implementation matched
the source" and by differential testing of the combinational, pipelined and
Filament implementations.  This module provides those two facilities on top
of :class:`~repro.harness.driver.CycleAccurateHarness`:

* :func:`random_transactions` — reproducible random input vectors sized to
  each port's width;
* :func:`differential_test` — run the same transactions through two designs
  (or a design and a Python golden model) and report every divergence;
* :func:`fuzz_against_golden` — check a design against a golden model,
  optionally running many independently seeded streams as one lane batch
  (``lanes=``; one C call on the native lane entry).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..sim.values import Value, format_value, is_x
from .driver import CycleAccurateHarness, Transaction

__all__ = ["random_transactions", "DifferentialReport", "differential_test",
           "fuzz_against_golden"]


def random_transactions(harness: CycleAccurateHarness, count: int,
                        seed: int = 0,
                        exclude: Sequence[str] = ()) -> List[Transaction]:
    """``count`` reproducible random transactions for ``harness``; ports in
    ``exclude`` are left undriven (useful for mode pins fixed elsewhere).

    Every call builds its own :class:`random.Random` from ``seed`` (streams
    never share global RNG state, so interleaved streams stay reproducible)
    and values span the port's *full* width — a 64-bit port receives
    stimulus with high bits set, not values capped at 2**30.
    """
    generator = random.Random(seed)
    transactions: List[Transaction] = []
    for _ in range(count):
        transaction: Transaction = {}
        for port in harness.spec.inputs:
            if port.name in exclude:
                continue
            transaction[port.name] = generator.getrandbits(port.width)
        transactions.append(transaction)
    return transactions


@dataclass
class DifferentialReport:
    """Outcome of a differential run: per-transaction divergences.

    ``seed`` records the stimulus-stream seed when the transactions were
    generated internally (``differential_test(..., count=, seed=)``), so a
    failing report can be replayed exactly; it is ``None`` when the caller
    supplied the transactions.

    ``fallback_reasons`` records, per harness role (``"reference"`` /
    ``"candidate"``) and per component, why the simulation engine routed
    through the sweep-loop fallback instead of the levelized schedule (see
    :attr:`~repro.sim.engine.ScheduledEngine.fallback_reason`); empty when
    everything ran on the schedule.
    """

    transactions: int
    divergences: List[str] = field(default_factory=list)
    seed: Optional[int] = None
    fallback_reasons: Dict[str, Dict[str, str]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.divergences

    def __str__(self) -> str:
        status = "AGREE" if self.passed else "DIVERGE"
        replay = "" if self.seed is None else f" [stimulus seed {self.seed}]"
        lines = [f"{status} over {self.transactions} transaction(s){replay}"]
        for role, reasons in sorted(self.fallback_reasons.items()):
            if reasons:
                detail = ", ".join(f"{name}: {reason}"
                                   for name, reason in sorted(reasons.items()))
                lines.append(f"  {role} engine fallback: {detail}")
        lines.extend(self.divergences[:20])
        if len(self.divergences) > 20:
            lines.append(f"... and {len(self.divergences) - 20} more")
        return "\n".join(lines)


def differential_test(reference: CycleAccurateHarness,
                      candidate: CycleAccurateHarness,
                      transactions: Optional[Sequence[Transaction]] = None,
                      outputs: Optional[Sequence[str]] = None,
                      count: int = 50, seed: int = 0) -> DifferentialReport:
    """Run the same transactions through two harnesses and compare the named
    outputs (all common outputs by default).

    When ``transactions`` is omitted, ``count`` random transactions are
    generated from a *per-stream* RNG seeded with ``seed`` (never the global
    RNG), and the seed is recorded in the report for replay.
    """
    stream_seed: Optional[int] = None
    if transactions is None:
        stream_seed = seed
        transactions = random_transactions(reference, count, seed=seed)
    names = list(outputs) if outputs is not None else [
        port.name for port in reference.spec.outputs
        if any(p.name == port.name for p in candidate.spec.outputs)
    ]
    reference_results = reference.run(transactions)
    candidate_results = candidate.run(transactions)
    report = DifferentialReport(len(transactions), seed=stream_seed)
    for role, harness in (("reference", reference), ("candidate", candidate)):
        simulator = harness._simulator
        if simulator is not None:
            report.fallback_reasons[role] = simulator.fallback_reasons()
    for ref, cand in zip(reference_results, candidate_results):
        for name in names:
            want, got = ref.output(name), cand.output(name)
            same = (is_x(want) and is_x(got)) or (not is_x(want) and not is_x(got) and want == got)
            if not same:
                report.divergences.append(
                    f"transaction {ref.index} ({ref.inputs}): {name} "
                    f"reference={format_value(want)} candidate={format_value(got)}"
                )
    return report


def fuzz_against_golden(harness: CycleAccurateHarness,
                        golden: Callable[[Transaction], Dict[str, int]],
                        count: int = 50, seed: int = 0,
                        lanes: int = 1) -> DifferentialReport:
    """Fuzz a design against a Python golden model.  The stimulus stream is
    seeded per call (recorded in the report), never from global RNG state.

    With ``lanes > 1``, ``lanes`` independent streams (seeded ``seed``,
    ``seed + 1``, …) run as one lane batch
    (:meth:`~repro.harness.driver.CycleAccurateHarness.run_lanes`) and
    every stream is checked against the golden model; on the native lane
    entry that amortizes per-call overhead on short streams.
    """
    if lanes <= 1:
        streams = [random_transactions(harness, count, seed)]
        per_stream = [harness.run(streams[0])]
    else:
        streams = [random_transactions(harness, count, seed=seed + lane)
                   for lane in range(lanes)]
        per_stream = harness.run_lanes(streams)
    report = DifferentialReport(count * len(streams), seed=seed)
    for lane, results in enumerate(per_stream):
        tag = "" if len(per_stream) == 1 else f"lane {lane} "
        for result in results:
            expected = golden(result.inputs)
            for name, want in expected.items():
                got = result.output(name)
                if is_x(got) or got != want:
                    report.divergences.append(
                        f"{tag}transaction {result.index} ({result.inputs}): "
                        f"{name} expected {want} got {format_value(got)}"
                    )
    return report
