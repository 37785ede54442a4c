"""The conformance coverage ledger.

Every conformance run records *what a seed actually exercised*: which op
kinds and widths appeared in the generated program, its initiation interval,
whether instances were structurally shared, which engine code path settled
the netlist (levelized schedule vs. sweep-loop fallback), and whether the
stimulus contained X cycles.  The ledger aggregates those records, can be
persisted as JSON (the CI artifact), merged across shards, and reports which
constructs a seed matrix has *not* yet covered — the feedback loop that
keeps the seed corpus honest.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from .generator import OP_KINDS, GeneratedProgram, ProgramSpec

__all__ = ["CoverageRecord", "CoverageLedger", "WIDTH_BUCKETS",
           "width_bucket", "cell_universe", "cells_of_record"]


# ---------------------------------------------------------------------------
# Coverage cells: op x width-bucket x engine-path
# ---------------------------------------------------------------------------

#: (label, lo, hi) — inclusive bit-width ranges the cell report bins over.
WIDTH_BUCKETS: Tuple[Tuple[str, int, int], ...] = (
    ("1", 1, 1),
    ("2-8", 2, 8),
    ("9-16", 9, 16),
    ("17-32", 17, 32),
    ("33-64", 33, 64),
    ("65+", 65, 1 << 30),
)

#: Engine code paths a program can prove an op on.  ``scheduled`` means the
#: levelized interpreter ran it, ``kernel`` the generated Python kernel,
#: ``native`` a scalar run on the compiled C kernel, ``native-lanes`` a
#: lane batch on it (``k_run_lanes`` over N fresh lane states).
_PATH_DIMS: Tuple[str, ...] = ("scheduled", "kernel", "native",
                               "native-lanes")

_COMPARE_KINDS = frozenset(("eq", "neq", "lt", "gt", "le", "ge"))


def width_bucket(width: int) -> str:
    """The bucket label for a bit width."""
    for label, lo, hi in WIDTH_BUCKETS:
        if lo <= width <= hi:
            return label
    return "65+"


def cell_universe() -> Set[Tuple[str, str, str, str]]:
    """Every reachable ``("op", kind, bucket, path)`` cell.

    Compares always produce width 1; ``tdot`` is pinned to width 8 and is a
    black-box primitive the native tier can never lower, so its native cells
    are unreachable by construction and excluded."""
    cells: Set[Tuple[str, str, str, str]] = set()
    for op in OP_KINDS:
        if op in _COMPARE_KINDS:
            buckets: Tuple[str, ...] = ("1",)
        elif op == "tdot":
            buckets = ("2-8",)
        else:
            buckets = ("1", "2-8", "9-16", "17-32", "33-64")
        for bucket in buckets:
            for path in _PATH_DIMS:
                if op == "tdot" and path in ("native", "native-lanes"):
                    continue
                cells.add(("op", op, bucket, path))
    return cells


_QUOTED = re.compile(r"'[^']*'|\"[^\"]*\"")


def _reason_bin(reason: str) -> str:
    """A stable bucket for a free-text fallback reason: quoted names are
    elided so per-program strings collapse into one cell."""
    return _QUOTED.sub("*", reason).strip()


@dataclass
class CoverageRecord:
    """What one generated program + differential run exercised."""

    name: str
    seed: Optional[int] = None
    ii: int = 1
    statements: int = 0
    ops: Dict[str, int] = field(default_factory=dict)
    widths: List[int] = field(default_factory=list)
    shared_instances: int = 0
    scheduled: bool = True
    fallback_components: List[str] = field(default_factory=list)
    #: Component name → why the engine fell back to the sweep loop
    #: (``duplicate-definition``, ``input-shadowing``, ``self-loop``,
    #: ``combinational-cycle``); empty for fully scheduled programs.
    fallback_reasons: Dict[str, str] = field(default_factory=dict)
    stimulus_has_x: bool = False
    transactions: int = 0
    #: How many stimulus streams ran as one lane batch on a native engine
    #: instantiation (1 = scalar only, no lane-vs-scalar check).
    lanes: int = 1
    #: Whether the ``compiled`` engine executed through a generated kernel
    #: (:mod:`repro.sim.codegen`); when it fell back to the interpreter,
    #: :attr:`kernel_fallback` records why.
    kernel: bool = False
    kernel_fallback: Optional[str] = None
    #: Whether the ``native`` engine executed through a compiled C kernel
    #: (:mod:`repro.sim.native`); when it fell back down the tier chain,
    #: :attr:`native_fallback` records why (ineligible netlist, >64-bit
    #: values, no host C compiler, ...).
    native: bool = False
    native_fallback: Optional[str] = None
    #: Whether the lane way executed through the native **lane** entry
    #: (``k_run_lanes`` in :mod:`repro.sim.native`): ``None`` when the way
    #: did not run at all, ``True`` for a native-lane run, ``False`` when
    #: it fell back to N scalar runs with the reason in
    #: :attr:`native_lanes_fallback`.
    native_lanes: Optional[bool] = None
    native_lanes_fallback: Optional[str] = None
    #: Whether the incremental-recompilation way ran (a seeded mutation was
    #: applied and the incremental artifacts were refereed byte-for-byte
    #: against a from-scratch compile), and which mutation family it used
    #: (``const`` / ``op-kind`` / ``input-width``).
    incremental: bool = False
    incremental_mutation: Optional[str] = None
    divergences: int = 0
    #: Generation regime that produced the program (``dataflow`` /
    #: ``hierarchy`` / ``fsm`` / ``blackbox``).
    regime: str = "dataflow"
    #: op kind -> sorted widths it appeared at (feeds the cell report).
    op_widths: Dict[str, List[int]] = field(default_factory=dict)
    #: How many stimulus transactions deliberately dropped (X-ed) ports.
    x_transactions: int = 0
    #: Digest of the steering plan that biased this seed (None = blind).
    plan_digest: Optional[str] = None
    #: Which frontend produced the design (``None`` for generated fuzz
    #: programs; ``filament`` / ``aetherling`` / ``pipelinec`` / ``reticle``
    #: for designs routed through :mod:`repro.core.frontend`).
    frontend: Optional[str] = None
    #: Whether the Verilog-loop way ran and closed cleanly (emit ->
    #: re-import -> byte-identical trace); ``None`` when the way was
    #: skipped, ``False`` when it ran and diverged.
    verilog_reimport: Optional[bool] = None
    #: Fault-injection schedule seed for the ``faults`` way (``None`` when
    #: the seed ran without injected faults).
    fault_seed: Optional[int] = None
    #: Degradation reason -> count observed while faults were armed (store
    #: write failures, quarantines, lock skips, injected cc hangs, ...).
    fault_degradations: Dict[str, int] = field(default_factory=dict)

    @staticmethod
    def from_program(generated: GeneratedProgram,
                     seed: Optional[int] = None) -> "CoverageRecord":
        """The static half of a record (the differential runner fills in the
        engine-path and stimulus fields)."""
        spec = generated.spec
        ops: Dict[str, int] = {}
        op_widths: Dict[str, Set[int]] = {}
        widths: Set[int] = set()
        shared = 0

        def visit(s: ProgramSpec) -> None:
            nonlocal shared
            widths.update(port.width for port in s.inputs)
            for node in s.nodes:
                ops[node.kind] = ops.get(node.kind, 0) + 1
                op_widths.setdefault(node.kind, set()).add(node.width)
                widths.add(node.width)
                if node.share_with is not None:
                    shared += 1
            for child in s.children:
                visit(child)

        visit(spec)
        return CoverageRecord(
            name=spec.name,
            seed=seed,
            ii=spec.ii,
            statements=generated.statements(),
            ops=ops,
            widths=sorted(widths),
            shared_instances=shared,
            regime=spec.regime,
            op_widths={kind: sorted(ws) for kind, ws in
                       sorted(op_widths.items())},
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name, "seed": self.seed, "ii": self.ii,
            "statements": self.statements, "ops": dict(self.ops),
            "widths": list(self.widths),
            "shared_instances": self.shared_instances,
            "scheduled": self.scheduled,
            "fallback_components": list(self.fallback_components),
            "fallback_reasons": dict(self.fallback_reasons),
            "stimulus_has_x": self.stimulus_has_x,
            "transactions": self.transactions,
            "lanes": self.lanes,
            "kernel": self.kernel,
            "kernel_fallback": self.kernel_fallback,
            "native": self.native,
            "native_fallback": self.native_fallback,
            "native_lanes": self.native_lanes,
            "native_lanes_fallback": self.native_lanes_fallback,
            "incremental": self.incremental,
            "incremental_mutation": self.incremental_mutation,
            "divergences": self.divergences,
            "regime": self.regime,
            "op_widths": {kind: list(ws)
                          for kind, ws in self.op_widths.items()},
            "x_transactions": self.x_transactions,
            "plan_digest": self.plan_digest,
            "frontend": self.frontend,
            "verilog_reimport": self.verilog_reimport,
            "fault_seed": self.fault_seed,
            "fault_degradations": dict(self.fault_degradations),
        }

    @staticmethod
    def from_dict(data: dict) -> "CoverageRecord":
        return CoverageRecord(**data)


def _record_paths(record: CoverageRecord) -> Set[str]:
    paths = {"scheduled" if record.scheduled else "sweep"}
    if record.kernel:
        paths.add("kernel")
    if record.native:
        paths.add("native")
    if record.native_lanes:
        paths.add("native-lanes")
    return paths


def _x_bin(record: CoverageRecord) -> str:
    if record.x_transactions <= 0:
        return "none"
    if record.transactions and record.x_transactions * 3 <= record.transactions:
        return "some"
    return "heavy"


def cells_of_record(record: CoverageRecord) -> Set[tuple]:
    """Every coverage cell one record proves.

    The primary cells are ``("op", kind, width-bucket, engine-path)``; the
    rest are auxiliary single-dimension cells (regime, II, sharing, lanes,
    X-stimulus bin, incremental-mutation kind, fallback-reason bins) that
    the steering loop also tries to fill."""
    cells: Set[tuple] = set()
    op_widths = record.op_widths or {
        kind: list(record.widths) for kind in record.ops}
    paths = _record_paths(record)
    for kind, widths in op_widths.items():
        for width in widths:
            bucket = width_bucket(width)
            for path in paths:
                cells.add(("op", kind, bucket, path))
    cells.add(("regime", record.regime))
    cells.add(("ii", record.ii))
    cells.add(("x", _x_bin(record)))
    if record.native_lanes:
        cells.add(("lanes", "native"))
    if record.shared_instances:
        cells.add(("sharing", "shared"))
    if record.incremental and record.incremental_mutation:
        cells.add(("mutation", record.incremental_mutation))
    for reason in record.fallback_reasons.values():
        cells.add(("sweep-fallback", _reason_bin(reason)))
    if record.kernel_fallback:
        cells.add(("kernel-fallback", _reason_bin(record.kernel_fallback)))
    if record.native_fallback:
        cells.add(("native-fallback", _reason_bin(record.native_fallback)))
    if record.native_lanes_fallback:
        cells.add(("native-lanes-fallback",
                   _reason_bin(record.native_lanes_fallback)))
    return cells


class CoverageLedger:
    """An aggregation of :class:`CoverageRecord` entries."""

    def __init__(self, records: Optional[List[CoverageRecord]] = None) -> None:
        self.records: List[CoverageRecord] = list(records or [])

    def add(self, record: CoverageRecord) -> None:
        self.records.append(record)

    def merge(self, other: "CoverageLedger") -> "CoverageLedger":
        return CoverageLedger(self.records + other.records)

    # -- aggregate views ------------------------------------------------------

    @property
    def programs(self) -> int:
        return len(self.records)

    @property
    def total_divergences(self) -> int:
        return sum(record.divergences for record in self.records)

    def op_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for record in self.records:
            for kind, count in record.ops.items():
                histogram[kind] = histogram.get(kind, 0) + count
        return dict(sorted(histogram.items()))

    def width_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for record in self.records:
            for width in record.widths:
                histogram[width] = histogram.get(width, 0) + 1
        return dict(sorted(histogram.items()))

    def ii_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for record in self.records:
            histogram[record.ii] = histogram.get(record.ii, 0) + 1
        return dict(sorted(histogram.items()))

    def engine_paths(self) -> Dict[str, int]:
        """How many programs settled on the levelized schedule everywhere
        vs. routed (somewhere) through the sweep-loop fallback."""
        scheduled = sum(1 for record in self.records if record.scheduled)
        return {"scheduled": scheduled,
                "fallback": len(self.records) - scheduled}

    def fallback_reason_histogram(self) -> Dict[str, int]:
        """Why fallbacks happened, across every recorded component."""
        histogram: Dict[str, int] = {}
        for record in self.records:
            for reason in record.fallback_reasons.values():
                histogram[reason] = histogram.get(reason, 0) + 1
        return dict(sorted(histogram.items()))

    def kernel_paths(self) -> Dict[str, int]:
        """How many programs the compiled engine ran through a generated
        kernel vs. the interpreter fallback.  Runs whose matrix did not
        include the compiled engine at all (no kernel, no fallback reason)
        are counted separately rather than mislabelled as fallbacks."""
        kernel = fallback = 0
        for record in self.records:
            if record.kernel:
                kernel += 1
            elif record.kernel_fallback:
                fallback += 1
        return {"kernel": kernel, "interpreter": fallback,
                "not-attempted": len(self.records) - kernel - fallback}

    def kernel_fallback_histogram(self) -> Dict[str, int]:
        """Why the compiled engine fell back, across recorded programs."""
        histogram: Dict[str, int] = {}
        for record in self.records:
            if record.kernel_fallback:
                histogram[record.kernel_fallback] = (
                    histogram.get(record.kernel_fallback, 0) + 1)
        return dict(sorted(histogram.items()))

    def native_paths(self) -> Dict[str, int]:
        """How many programs the native engine ran through a compiled C
        kernel vs. fell back down the tier chain; runs whose matrix did not
        include the native engine are counted separately.  ``lane-native``
        counts the subset of runs whose lane way additionally went
        through the native lane entry — distinguishing scalar-native-only
        runs from fully native ones."""
        native = fallback = lane_native = 0
        for record in self.records:
            if record.native:
                native += 1
            elif record.native_fallback:
                fallback += 1
            if record.native_lanes:
                lane_native += 1
        return {"native": native, "fallback": fallback,
                "not-attempted": len(self.records) - native - fallback,
                "lane-native": lane_native}

    def native_fallback_histogram(self) -> Dict[str, int]:
        """Why the native engine fell back, across recorded programs."""
        histogram: Dict[str, int] = {}
        for record in self.records:
            if record.native_fallback:
                histogram[record.native_fallback] = (
                    histogram.get(record.native_fallback, 0) + 1)
        return dict(sorted(histogram.items()))

    def native_lanes_fallback_histogram(self) -> Dict[str, int]:
        """Why the lane way missed the native lane entry, across
        recorded programs whose way ran but fell back."""
        histogram: Dict[str, int] = {}
        for record in self.records:
            if record.native_lanes is False and record.native_lanes_fallback:
                histogram[record.native_lanes_fallback] = (
                    histogram.get(record.native_lanes_fallback, 0) + 1)
        return dict(sorted(histogram.items()))

    def verilog_reimport_paths(self) -> Dict[str, int]:
        """How many runs closed the Verilog loop (emit -> re-import ->
        byte-identical trace) vs. diverged vs. skipped the way."""
        closed = diverged = 0
        for record in self.records:
            if record.verilog_reimport is True:
                closed += 1
            elif record.verilog_reimport is False:
                diverged += 1
        return {"closed": closed, "diverged": diverged,
                "skipped": len(self.records) - closed - diverged}

    def frontend_histogram(self) -> Dict[str, int]:
        """Which frontends the recorded designs entered through (generated
        fuzz programs carry no frontend and are excluded)."""
        histogram: Dict[str, int] = {}
        for record in self.records:
            if record.frontend:
                histogram[record.frontend] = (
                    histogram.get(record.frontend, 0) + 1)
        return dict(sorted(histogram.items()))

    def fault_degradation_histogram(self) -> Dict[str, int]:
        """Degradation reason -> count across fault-injected runs: every
        time the store (or a process boundary) absorbed an injected fault
        by degrading instead of corrupting."""
        histogram: Dict[str, int] = {}
        for record in self.records:
            for reason, count in record.fault_degradations.items():
                histogram[reason] = histogram.get(reason, 0) + count
        return dict(sorted(histogram.items()))

    def fault_runs(self) -> int:
        """How many recorded runs executed under an armed fault plan."""
        return sum(1 for record in self.records
                   if record.fault_seed is not None)

    def incremental_mutation_histogram(self) -> Dict[str, int]:
        """Which mutation families the incremental-recompilation way
        exercised, across recorded programs."""
        histogram: Dict[str, int] = {}
        for record in self.records:
            if record.incremental and record.incremental_mutation:
                histogram[record.incremental_mutation] = (
                    histogram.get(record.incremental_mutation, 0) + 1)
        return dict(sorted(histogram.items()))

    def unexercised_ops(self) -> List[str]:
        """Op kinds the generator knows but no recorded program used."""
        used = set()
        for record in self.records:
            used.update(record.ops)
        return sorted(set(OP_KINDS) - used)

    def covered_cells(self) -> Set[tuple]:
        """The union of every record's coverage cells
        (see :func:`cells_of_record`)."""
        cells: Set[tuple] = set()
        for record in self.records:
            cells |= cells_of_record(record)
        return cells

    def uncovered_cells(self) -> List[Tuple[str, str, str, str]]:
        """Reachable ``("op", kind, bucket, path)`` cells no recorded
        program has proven — what this seed matrix *missed*."""
        return sorted(cell_universe() - self.covered_cells())

    def summary(self) -> str:
        paths = self.engine_paths()
        lines = [
            f"conformance coverage: {self.programs} program(s), "
            f"{self.total_divergences} divergence(s)",
            f"  engine paths: {paths['scheduled']} scheduled, "
            f"{paths['fallback']} fallback",
            f"  II histogram: {self.ii_histogram()}",
            f"  widths: {self.width_histogram()}",
            f"  ops: {self.op_histogram()}",
        ]
        reasons = self.fallback_reason_histogram()
        if reasons:
            lines.append(f"  fallback reasons: {reasons}")
        kernels = self.kernel_paths()
        if kernels["kernel"] or kernels["interpreter"]:
            # All-fallback runs are exactly what this line must surface, so
            # it prints whenever the compiled engine was attempted at all.
            lines.append(f"  kernel paths: {kernels['kernel']} compiled "
                         f"kernel, {kernels['interpreter']} interpreter")
            kernel_reasons = self.kernel_fallback_histogram()
            if kernel_reasons:
                lines.append(f"  kernel fallbacks: {kernel_reasons}")
        natives = self.native_paths()
        if natives["native"] or natives["fallback"]:
            lines.append(f"  native paths: {natives['native']} C kernel "
                         f"({natives['lane-native']} lane-native), "
                         f"{natives['fallback']} fallback")
            native_reasons = self.native_fallback_histogram()
            if native_reasons:
                lines.append(f"  native fallbacks: {native_reasons}")
            lane_reasons = self.native_lanes_fallback_histogram()
            if lane_reasons:
                lines.append(f"  native-lane fallbacks: {lane_reasons}")
        lanes = sorted({record.lanes for record in self.records})
        if lanes and lanes != [1]:
            lines.append(f"  lane way, streams per run: {lanes}")
        incremental = sum(1 for r in self.records if r.incremental)
        if incremental:
            lines.append(
                f"  incremental recompiles: {incremental}/{self.programs} "
                f"(mutations: {self.incremental_mutation_histogram()})")
        reimports = self.verilog_reimport_paths()
        if reimports["closed"] or reimports["diverged"]:
            lines.append(f"  verilog loop: {reimports['closed']} closed, "
                         f"{reimports['diverged']} diverged, "
                         f"{reimports['skipped']} skipped")
        frontends = self.frontend_histogram()
        if frontends:
            lines.append(f"  frontends: {frontends}")
        fault_runs = self.fault_runs()
        if fault_runs:
            lines.append(f"  fault-injected runs: {fault_runs}/"
                         f"{self.programs} (degradations: "
                         f"{self.fault_degradation_histogram()})")
        missing = self.unexercised_ops()
        if missing:
            lines.append(f"  unexercised ops: {', '.join(missing)}")
        universe = cell_universe()
        covered = self.covered_cells() & universe
        uncovered = self.uncovered_cells()
        lines.append(f"  cell coverage: {len(covered)}/{len(universe)} "
                     f"op x width-bucket x engine-path cells")
        if uncovered:
            sample = ", ".join("/".join(cell[1:]) for cell in uncovered[:6])
            suffix = ", ..." if len(uncovered) > 6 else ""
            lines.append(f"  uncovered cells ({len(uncovered)}): "
                         f"{sample}{suffix}")
        regimes: Dict[str, int] = {}
        for record in self.records:
            regimes[record.regime] = regimes.get(record.regime, 0) + 1
        if set(regimes) != {"dataflow"}:
            lines.append(f"  regimes: {dict(sorted(regimes.items()))}")
        shared = sum(record.shared_instances for record in self.records)
        lines.append(f"  shared invocations: {shared}, X stimulus: "
                     f"{sum(1 for r in self.records if r.stimulus_has_x)}"
                     f"/{self.programs}")
        return "\n".join(lines)

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "programs": self.programs,
            "divergences": self.total_divergences,
            "op_histogram": self.op_histogram(),
            "width_histogram": {str(k): v for k, v in self.width_histogram().items()},
            "engine_paths": self.engine_paths(),
            "fallback_reasons": self.fallback_reason_histogram(),
            "kernel_paths": self.kernel_paths(),
            "kernel_fallbacks": self.kernel_fallback_histogram(),
            "native_paths": self.native_paths(),
            "native_fallbacks": self.native_fallback_histogram(),
            "native_lanes_fallbacks": self.native_lanes_fallback_histogram(),
            "incremental_mutations": self.incremental_mutation_histogram(),
            "verilog_reimport": self.verilog_reimport_paths(),
            "frontends": self.frontend_histogram(),
            "fault_runs": self.fault_runs(),
            "fault_degradations": self.fault_degradation_histogram(),
            "cell_coverage": {
                "covered": len(self.covered_cells() & cell_universe()),
                "universe": len(cell_universe()),
                "uncovered": ["/".join(cell[1:])
                              for cell in self.uncovered_cells()],
            },
            "records": [record.to_dict() for record in self.records],
        }

    @staticmethod
    def from_dict(data: dict) -> "CoverageLedger":
        return CoverageLedger(
            [CoverageRecord.from_dict(record) for record in data["records"]]
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @staticmethod
    def load(path: Union[str, Path]) -> "CoverageLedger":
        return CoverageLedger.from_dict(json.loads(Path(path).read_text()))
