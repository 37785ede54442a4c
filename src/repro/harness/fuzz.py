"""Random stimulus generation and differential testing.

Appendix B.1 of the paper validates the pipelined floating-point adder by
"a fuzzing harness to ensure that the outputs of the implementation matched
the source" and by differential testing of the combinational, pipelined and
Filament implementations.  This module provides those two facilities on top
of :class:`~repro.harness.driver.CycleAccurateHarness`:

* :func:`random_transactions` — reproducible random input vectors sized to
  each port's width, drawn transaction-major, port-minor;
* :func:`differential_test` — run the same transactions through two designs
  (or a design and a Python golden model) and report every divergence;
* :func:`fuzz_against_golden` — check a design against a golden model,
  one golden call per transaction and whole output columns compared,
  optionally running many independently seeded streams as one lane batch
  (``lanes=``; one C call on the native lane entry).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import cycle, islice, repeat
from operator import itemgetter, setitem
from typing import Callable, Dict, List, Optional, Sequence

from ..sim.values import X, format_value
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

    The draw order is transaction-major, port-minor (spec order, skipping
    ``exclude``): one ``getrandbits`` call per value, all in one pass, so
    port ``i``'s column is every ``len(ports)``-th value from ``i``.  Every
    recorded seed reproduces the same stream.
    """
    ports = [port for port in harness.spec.inputs if port.name not in exclude]
    # The row dicts exist before the draw, so the collections their
    # allocation triggers find no drawn value list to walk.
    transactions: List[Transaction] = [{} for _ in range(count)]
    drawn = list(map(random.Random(seed).getrandbits,
                     islice(cycle([port.width for port in ports]),
                            len(transactions) * len(ports))))
    for index, port in enumerate(ports):
        # ``transaction[name] = value`` for every transaction, looped in C.
        deque(map(setitem, transactions, repeat(port.name),
                  drawn[index::len(ports)]), maxlen=0)
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

    Each named output is compared as a whole captured column; only a
    column that differs is walked transaction by transaction.  A name that
    is not an output of a design reads ``X`` there.
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
    # ``X`` is a singleton equal only to itself, so column equality is
    # value equality with matching X planes.
    missing = [X] * len(reference_results)
    differing = []
    for name in names:
        want = reference_results.columns.get(name, missing)
        got = candidate_results.columns.get(name, missing)
        if want != got:
            differing.append((name, want, got))
    if differing:
        for index, ref in enumerate(reference_results):
            for name, want, got in differing:
                if want[index] != got[index]:
                    report.divergences.append(
                        f"transaction {ref.index} ({ref.inputs}): {name} "
                        f"reference={format_value(want[index])} "
                        f"candidate={format_value(got[index])}"
                    )
    return report


#: Transactions per chunk of the golden check.  Only one chunk's expected
#: dicts are alive at a time, so a long stream's check holds a bounded
#: number of them, however long the stream: every live dict adds to peak
#: memory and to what each collector pass walks.
_CHECK_CHUNK = 256


def _chunk_agrees(expected: List[Dict[str, int]],
                  columns: Dict[str, List], start: int) -> bool:
    """Whether the ``expected`` dicts of the transactions from ``start`` on
    all hold exactly the captured values: every dict has the first one's
    keys, each of those names is an output whose captured slice equals the
    expected values, and no captured entry is ``X`` (list equality tests
    identity first, so an expected ``X`` would otherwise match a captured
    one)."""
    names = list(expected[0])
    if set(map(len, expected)) != {len(names)}:
        return False
    stop = start + len(expected)
    for name in names:
        column = columns.get(name)
        if column is None:
            return False
        try:
            want = list(map(itemgetter(name), expected))
        except KeyError:
            return False
        got = column[start:stop]
        if want != got or X in got:
            return False
    return True


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

    The check makes exactly one ``golden(transaction)`` call per
    transaction, in transaction order and lane order, and compares the
    expected outputs with the run's captured columns
    (:attr:`~repro.harness.driver.CapturedRun.columns`) a chunk of
    transactions at a time, one whole slice per output name.  Only a chunk
    that does not agree is walked transaction by transaction, which
    reports every divergence in order; a name that is not an output of the
    design reads ``X``.  The expected dicts of a chunk are read after its
    golden calls, so ``golden`` must return a new dict on every call.
    """
    if lanes <= 1:
        streams = [random_transactions(harness, count, seed)]
        per_stream = [harness.run(streams[0])]
    else:
        streams = [random_transactions(harness, count, seed=seed + lane)
                   for lane in range(lanes)]
        per_stream = harness.run_lanes(streams)
    report = DifferentialReport(count * len(streams), seed=seed)
    for lane, (transactions, results) in enumerate(zip(streams, per_stream)):
        tag = "" if len(per_stream) == 1 else f"lane {lane} "
        columns = results.columns
        for start in range(0, len(transactions), _CHECK_CHUNK):
            chunk = transactions[start:start + _CHECK_CHUNK]
            expected = list(map(golden, chunk))
            if _chunk_agrees(expected, columns, start):
                continue
            for index, transaction, wants in zip(
                    range(start, start + len(chunk)), chunk, expected):
                for name, want in wants.items():
                    column = columns.get(name)
                    got = X if column is None else column[index]
                    if got is X or got != want:
                        report.divergences.append(
                            f"{tag}transaction {index} ({transaction}): "
                            f"{name} expected {want} got {format_value(got)}"
                        )
    return report
