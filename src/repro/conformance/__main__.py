"""Command-line driver for the conformance subsystem.

Examples::

    # 50 generated programs through the full differential matrix
    python -m repro.conformance --seeds 50 --ledger conformance-ledger.json

    # replay the committed golden corpus
    python -m repro.conformance --replay tests/corpus

    # mint new corpus entries from a seed range
    python -m repro.conformance --seeds 10 --write-corpus tests/corpus

    # coverage-guided, sharded fuzzing: blind round, re-steer, steered round
    python -m repro.conformance --seeds 200 --jobs 4 --rounds 2 \\
        --require-progress --ledger merged-ledger.json

Every seed range and every replay runs through
:func:`repro.conformance.parallel.run_shards` (one shard runs in this
process), so every flag means the same at any ``--jobs``: the ledger and
any corpus written are byte-identical for one job and for N.  Exit status is non-zero when any program diverges.  Failures
print a one-line repro command and are shrunk here, in the parent
process, to minimal reproducers unless ``--no-shrink`` is given.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from . import parallel
from .corpus import load_entries
from .coverage import CoverageLedger, cell_universe, cells_of_record
from .faults import run_fault_schedule
from .frontends import frontend_conformance_sweep
from .generator import GeneratorConfig, ProgramSpec, build
from .parallel import (RoundResult, ShardFailure, distill_corpus,
                       run_rounds, run_shards)
from .shrink import divergence_categories, shrink, spec_fails
from .steering import SteeringPlan, plan_from_ledger


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="Random well-typed program generation + N-way "
                    "differential execution.",
    )
    parser.add_argument("--seeds", type=int, default=20,
                        help="number of generator seeds to run (default 20)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed of the range (default 0)")
    parser.add_argument("--transactions", type=int, default=12,
                        help="random transactions per program (default 12)")
    parser.add_argument("--lanes", type=int, default=4,
                        help="stimulus streams run as one lane batch on a "
                             "native engine and checked against scalar "
                             "traces (default 4; 1 disables the lane way)")
    parser.add_argument("--engine", action="append", dest="engines",
                        metavar="NAME",
                        help="engines to include in the differential matrix "
                             "(repeatable; default: all four)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="shard the seed range or replay over N worker "
                             "processes with a deterministic merged ledger "
                             "(default 1)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="run every shard in a worker process, kill one "
                             "that exceeds this wall clock, salvage its "
                             "partial ledger and retry its unfinished jobs "
                             "(default: no timeout)")
    parser.add_argument("--faults", type=int, default=None, metavar="N",
                        help="run the fault-injection persistence way over "
                             "N seeds instead of the differential matrix: "
                             "each seed compiles and simulates fault-free, "
                             "then cold and warm against a fresh artifact "
                             "store under a randomized fault schedule, and "
                             "all three must match byte-for-byte")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="with --faults: pin the fault schedule seed "
                             "(default: each seed uses itself)")
    parser.add_argument("--rounds", type=int, default=1,
                        help="steering rounds: round 1 samples blind, each "
                             "later round is re-steered from the merged "
                             "coverage of all earlier rounds (default 1)")
    parser.add_argument("--plan", metavar="PATH",
                        help="steer generation with this saved SteeringPlan "
                             "JSON (what failure repro commands reference)")
    parser.add_argument("--save-plan", metavar="PATH",
                        help="derive a steering plan from the final merged "
                             "ledger and save it here")
    parser.add_argument("--x-stimulus", type=float, default=None,
                        metavar="P",
                        help="drop each stimulus port from each transaction "
                             "with probability P in every round, driving X "
                             "inside availability windows (default: each "
                             "round's plan x_probability, else 0)")
    parser.add_argument("--require-progress", action="store_true",
                        help="with --rounds >= 2: fail unless steering "
                             "strictly grew cell coverage over the blind "
                             "round, and never lost a covered cell")
    parser.add_argument("--ledger", metavar="PATH",
                        help="write the (merged) coverage ledger JSON here")
    parser.add_argument("--replay", metavar="DIR",
                        help="replay the corpus entries in DIR instead of "
                             "generating from seeds")
    parser.add_argument("--write-corpus", metavar="DIR",
                        help="persist generated programs as corpus entries "
                             "in DIR (with --distill: only coverage-adding "
                             "ones)")
    parser.add_argument("--distill", action="store_true",
                        help="with --write-corpus: keep only programs that "
                             "add at least one new coverage cell, bounded "
                             "by --corpus-limit")
    parser.add_argument("--corpus-limit", type=int, default=25,
                        help="maximum distilled corpus entries (default 25)")
    parser.add_argument("--max-ops", type=int, default=None,
                        help="override the generator's max op count")
    parser.add_argument("--no-roundtrip", action="store_true",
                        help="skip the print/re-parse round-trip oracle")
    parser.add_argument("--no-incremental", action="store_true",
                        help="skip the incremental-recompilation oracle "
                             "(seeded in-place mutation; incremental "
                             "Calyx/Verilog must be byte-identical to a "
                             "from-scratch compile)")
    parser.add_argument("--no-reimport", action="store_true",
                        help="skip the Verilog-loop oracle (emitted Verilog "
                             "re-imported to a netlist whose trace must be "
                             "byte-identical to the engine matrix)")
    parser.add_argument("--frontends", nargs="?", const="all",
                        metavar="FRONTEND",
                        help="also run the frontend conformance way over "
                             "the generator designs (aetherling, pipelinec, "
                             "reticle; default: all of them): reported-spec "
                             "audit, golden model, regeneration and "
                             "Verilog-loop checks across the engine "
                             "matrix")
    parser.add_argument("--frontends-full", action="store_true",
                        help="with --frontends: sweep every Aetherling "
                             "design point instead of the representatives")
    parser.add_argument("--no-shrink", action="store_true",
                        help="do not shrink failing programs")
    parser.add_argument("--quiet", action="store_true",
                        help="only print failures and the final summary")
    return parser


def _finish(ledger: CoverageLedger, failures: int,
            args: argparse.Namespace,
            config: GeneratorConfig) -> int:
    print()
    print(ledger.summary())
    if args.ledger:
        path = ledger.save(args.ledger)
        print(f"coverage ledger written to {path}")
    if args.save_plan:
        plan = plan_from_ledger(ledger, config)
        path = plan.save(args.save_plan)
        print(f"steering plan {plan.digest()} written to {path}")
    if failures:
        print(f"{failures} program(s) diverged")
        return 1
    print("all programs agree across every oracle")
    return 0


def _run_frontends(args: argparse.Namespace, engines) -> tuple:
    """The frontend conformance way over the generator designs; returns the
    coverage records plus the failure count."""
    frontend = None if args.frontends == "all" else args.frontends
    results = frontend_conformance_sweep(
        frontend, full=args.frontends_full,
        transactions=args.transactions, engines=engines,
        reimport=not args.no_reimport)
    print(f"frontend conformance: {len(results)} generator design(s)"
          + ("" if frontend is None else f" ({frontend})"))
    records = []
    failures = 0
    for result in results:
        if result.coverage is not None:
            records.append(result.coverage)
        label = f"{result.coverage.frontend}/{result.name}"
        if result.passed:
            if not args.quiet:
                loop = ("verilog loop closed"
                        if result.coverage.verilog_reimport
                        else "verilog loop skipped")
                print(f"  {label}: ok ({loop})")
        else:
            failures += 1
            print(f"  {label}: DIVERGED")
            print("    " + "\n    ".join(result.divergences[:10]))
    return records, failures


def _run_faults(args: argparse.Namespace, config: GeneratorConfig) -> int:
    """The fault-injection persistence way (``--faults N``)."""
    print(f"fault-injection conformance: seeds {args.start}.."
          f"{args.start + args.faults - 1}"
          + (f", fault schedule {args.fault_seed}"
             if args.fault_seed is not None else ""))
    results = run_fault_schedule(
        start=args.start, count=args.faults,
        transactions=args.transactions, config=config,
        fault_seed=args.fault_seed)
    ledger = CoverageLedger()
    failures = 0
    for result in results:
        if result.coverage is not None:
            ledger.add(result.coverage)
        absorbed = sum(count for reason, count in result.degradations.items()
                       if not reason.startswith("injected:"))
        injected = sum(count for reason, count in result.degradations.items()
                       if reason.startswith("injected:"))
        if result.passed:
            if not args.quiet:
                print(f"  seed {result.seed}: ok ({injected} fault(s) "
                      f"injected, {absorbed} degradation(s) absorbed, "
                      f"artifacts byte-identical)")
        else:
            failures += 1
            print(f"  seed {result.seed}: DIVERGED under faults")
            print("    " + "\n    ".join(result.divergences[:10]))
            print(f"    repro: {result.repro_command()}")
    return _finish(ledger, failures, args, config)


def _label(outcome) -> str:
    return outcome.name if outcome.seed is None else f"seed {outcome.seed}"


def _shrink(failure: ShardFailure, args: argparse.Namespace, engines,
            x_probability: float) -> None:
    """Shrink one divergence to a minimal reproducer and print it."""
    # The predicate must reproduce *this* failure: same stimulus seed,
    # transaction count and round-trip setting, and the same divergence
    # categories.
    categories = divergence_categories(failure.divergences)

    def reproduces(spec) -> bool:
        return spec_fails(spec,
                          engines=engines,
                          transactions=args.transactions,
                          seed=0 if failure.seed is None else failure.seed,
                          roundtrip=not args.no_roundtrip,
                          incremental="incremental" in categories,
                          reimport="verilog-reimport" in categories,
                          categories=categories,
                          lanes=args.lanes,
                          x_probability=x_probability)

    spec = ProgramSpec.from_dict(failure.spec)
    if not reproduces(spec):
        print("    (failure did not reproduce under the shrink predicate; "
              "no reproducer printed)")
        return
    reproducer = build(shrink(spec, reproduces))
    print(f"    shrunk to {reproducer.statements()} statement(s):")
    for line in reproducer.text().splitlines():
        print(f"      {line}")


def _report(rounds: List[RoundResult], args: argparse.Namespace,
            engines) -> int:
    """Print every round from its records and failures, shrinking each
    divergence; returns the failure count."""
    merged = CoverageLedger()
    failures = 0
    for round_result in rounds:
        run = round_result.run
        if not args.replay:
            label = (f"round {round_result.index + 1}/{len(rounds)}: seeds "
                     f"{round_result.seeds[0]}..{round_result.seeds[-1]} "
                     f"({run.jobs} job(s))")
            if round_result.plan is not None:
                label += f", plan {round_result.plan.digest()}"
            print(label)
        merged = merged.merge(run.ledger)
        for record in run.records:
            if not args.quiet and not record.divergences:
                ops = ",".join(sorted(record.ops)) or "passthrough"
                path = "scheduled" if record.scheduled else "fallback"
                print(f"  {_label(record)}: ok ({record.statements} stmts, "
                      f"II={record.ii}, {path}; {ops})")
        for crash in run.crashes:
            status = "requeued" if crash.requeued else "nothing to requeue"
            print(f"  worker crash (attempt {crash.attempt}): {crash.reason}; "
                  f"{crash.salvaged} job(s) salvaged, "
                  f"{len(crash.seeds)} unfinished ({status})")
        for failure in run.failures:
            failures += 1
            if failure.kind in ("crash", "timeout"):
                print(f"  {_label(failure)}: WORKER "
                      f"{failure.kind.upper()} ({failure.reason})")
            else:
                print(f"  {_label(failure)}: DIVERGED")
                print("    " + "\n    ".join(failure.divergences[:10]))
            if failure.repro:
                print(f"    repro: {failure.repro}")
            if failure.kind == "divergence" and not args.no_shrink:
                _shrink(failure, args, engines,
                        round_result.config.x_probability)
        if not args.quiet:
            covered = len(merged.covered_cells() & cell_universe())
            print(f"  merged cell coverage: {covered}/{len(cell_universe())}")
    return failures


def _progress_failed(blind_round: RoundResult,
                     fuzz: CoverageLedger) -> bool:
    """``--require-progress``: steering must have added a cell over the
    blind round and lost none."""
    blind = set()
    for record in blind_round.run.records:
        blind |= cells_of_record(record)
    final = fuzz.covered_cells()
    lost = sorted(blind - final)
    if lost:
        print(f"PROGRESS CHECK FAILED: {len(lost)} previously covered "
              f"cell(s) left uncovered, e.g. {lost[:3]}")
        return True
    if not (final - blind):
        print("PROGRESS CHECK FAILED: steering added no coverage cell "
              "over the blind round")
        return True
    print(f"progress: steering added {len(final - blind)} cell(s) over the "
          f"blind round")
    return False


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    config = GeneratorConfig()
    if args.max_ops is not None:
        if args.max_ops < config.min_ops:
            parser.error(f"--max-ops needs N >= {config.min_ops} (the "
                         f"generator's min_ops)")
        config = replace(config, max_ops=args.max_ops)

    # The runner's engine registry, so one swapped in by a test reaches
    # the validation below, the workers and the shrinker alike.
    available = parallel.default_engines()
    if args.engines:
        unknown = sorted(set(args.engines) - set(available))
        if unknown:
            parser.error(f"unknown engine(s): {', '.join(unknown)} "
                         f"(available: {', '.join(sorted(available))})")
    if args.require_progress and args.rounds < 2:
        parser.error("--require-progress needs --rounds >= 2")
    if args.distill and not args.write_corpus:
        parser.error("--distill needs --write-corpus")
    if args.write_corpus and args.replay:
        parser.error("--write-corpus mints generated programs; it does not "
                     "apply to --replay")
    if args.frontends_full and not args.frontends:
        parser.error("--frontends-full needs --frontends")
    if args.frontends and args.frontends not in (
            "all", "aetherling", "pipelinec", "reticle"):
        parser.error(f"unknown frontend {args.frontends!r} (expected "
                     f"aetherling, pipelinec, reticle, or no value for all)")
    if args.fault_seed is not None and args.faults is None:
        parser.error("--fault-seed needs --faults")
    if args.faults is not None:
        if args.faults < 1:
            parser.error("--faults needs N >= 1")
        return _run_faults(args, config)

    plan = SteeringPlan.load(args.plan) if args.plan else None
    engines = {name: factory for name, factory in available.items()
               if not args.engines or name in args.engines}
    frontend_records: List = []
    failures = 0
    if args.frontends:
        frontend_records, failures = _run_frontends(args, engines)

    campaign = dict(jobs=args.jobs, engine_names=sorted(engines),
                    transactions=args.transactions, lanes=args.lanes,
                    roundtrip=not args.no_roundtrip,
                    incremental=not args.no_incremental,
                    reimport=not args.no_reimport,
                    shard_timeout=args.shard_timeout)
    if args.replay:
        entries = load_entries(args.replay)
        if not entries:
            print(f"no corpus entries found in {args.replay}")
            return 1
        print(f"replaying {len(entries)} corpus entr(y/ies) from "
              f"{args.replay} ({args.jobs} job(s))")
        x_probability = args.x_stimulus if args.x_stimulus is not None \
            else (plan.x_probability if plan is not None else 0.0)
        run = run_shards(
            [entry for _, entry in entries], x_probability=x_probability,
            plan_digest=plan.digest() if plan is not None else None,
            **campaign)
        rounds = [RoundResult(
            index=0, seeds=[], run=run, plan=plan,
            config=replace(config, x_probability=x_probability))]
    else:
        print(f"running seeds {args.start}..{args.start + args.seeds - 1} "
              f"({args.jobs} job(s), {args.rounds} round(s))"
              if args.seeds > 0 else "running no generator seeds")
        # run_rounds applies the plan itself (round 0 steered, later
        # rounds re-derived), so hand it the unsteered config.
        rounds = run_rounds(
            start=args.start, total=args.seeds, rounds=args.rounds,
            config=config, initial_plan=plan,
            plan_dir=Path(args.save_plan).parent if args.save_plan else ".",
            x_probability=args.x_stimulus, **campaign)

    failures += _report(rounds, args, engines)
    fuzz = CoverageLedger([record for round_result in rounds
                           for record in round_result.run.records])
    if args.require_progress and len(rounds) >= 2:
        failures += _progress_failed(rounds[0], fuzz)
    if args.write_corpus:
        written = distill_corpus(rounds, args.write_corpus,
                                 limit=args.corpus_limit,
                                 distill=args.distill)
        print(f"{'distilled ' if args.distill else ''}corpus: "
              f"{len(written)} entr(y/ies) written to {args.write_corpus}")

    # Frontend records lead the ledger; they joined no progress check,
    # which compares steered vs. blind *fuzz* coverage alone.
    return _finish(CoverageLedger(frontend_records).merge(fuzz), failures,
                   args, config)


if __name__ == "__main__":
    sys.exit(main())
