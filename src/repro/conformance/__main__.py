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

Exit status is non-zero when any program diverges.  Failures print a
one-line repro command and are shrunk to minimal reproducers unless
``--no-shrink`` is given.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Set

from .corpus import corpus_entry, load_entries, replay_entry, write_entry
from .coverage import CoverageLedger, cell_universe, cells_of_record
from .differential import default_engines, run_conformance
from .faults import run_fault_schedule
from .frontends import frontend_conformance_sweep
from .generator import GeneratorConfig, build, generate
from .parallel import distill_corpus, run_rounds
from .shrink import divergence_categories, shrink, spec_fails
from .steering import SteeringPlan, plan_from_ledger, steer_config


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
                        help="shard the seed range over N worker processes "
                             "with a deterministic merged ledger (default 1)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="with --jobs > 1: kill a worker shard that "
                             "exceeds this wall clock, salvage its partial "
                             "ledger and retry its unfinished seeds "
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
                             "with probability P, driving X inside "
                             "availability windows (default: the plan's "
                             "x_probability, else 0)")
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


def _run_parallel(args: argparse.Namespace, config: GeneratorConfig,
                  engine_names: List[str],
                  initial_plan: Optional[SteeringPlan],
                  frontend_records=(), frontend_failures: int = 0) -> int:
    plan_dir = Path(args.save_plan).parent if args.save_plan else Path(".")
    rounds = run_rounds(
        start=args.start,
        total=args.seeds,
        rounds=args.rounds,
        jobs=args.jobs,
        config=config,
        engine_names=engine_names,
        transactions=args.transactions,
        lanes=args.lanes,
        roundtrip=not args.no_roundtrip,
        incremental=not args.no_incremental,
        reimport=not args.no_reimport,
        plan_dir=plan_dir,
        initial_plan=initial_plan,
        shard_timeout=args.shard_timeout,
    )

    merged = CoverageLedger()
    failures = frontend_failures
    for round_result in rounds:
        label = (f"round {round_result.index + 1}/{len(rounds)}: seeds "
                 f"{round_result.seeds[0]}..{round_result.seeds[-1]} "
                 f"({round_result.run.jobs} job(s))")
        if round_result.plan is not None:
            label += f", plan {round_result.plan.digest()}"
        print(label)
        merged = merged.merge(round_result.run.ledger)
        for crash in round_result.run.crashes:
            status = "requeued" if crash.requeued else "nothing to requeue"
            print(f"  worker crash (attempt {crash.attempt}): {crash.reason}; "
                  f"{crash.salvaged} seed(s) salvaged, "
                  f"{len(crash.seeds)} unfinished ({status})")
        for failure in round_result.run.failures:
            failures += 1
            if failure.kind in ("crash", "timeout"):
                print(f"  seed {failure.seed}: WORKER {failure.kind.upper()}"
                      f" ({failure.reason})")
            else:
                print(f"  seed {failure.seed}: DIVERGED")
                print("    " + "\n    ".join(failure.divergences))
            if failure.repro:
                print(f"    repro: {failure.repro}")
        if not args.quiet:
            covered = len(merged.covered_cells() & cell_universe())
            print(f"  merged cell coverage: {covered}/{len(cell_universe())}")

    if args.require_progress and len(rounds) >= 2:
        blind = set()
        for record in rounds[0].run.records:
            blind |= cells_of_record(record)
        final = merged.covered_cells()
        lost = sorted(blind - final)
        if lost:
            print(f"PROGRESS CHECK FAILED: {len(lost)} previously covered "
                  f"cell(s) left uncovered, e.g. {lost[:3]}")
            failures += 1
        elif not (final - blind):
            print("PROGRESS CHECK FAILED: steering added no coverage cell "
                  "over the blind round")
            failures += 1
        else:
            print(f"progress: steering added "
                  f"{len(final - blind)} cell(s) over the blind round")

    if args.write_corpus:
        written = distill_corpus(rounds, args.write_corpus,
                                 limit=args.corpus_limit)
        print(f"distilled corpus: {len(written)} coverage-adding entr(y/ies) "
              f"written to {args.write_corpus}")

    # Frontend records join the ledger only after the progress check, which
    # must compare steered vs. blind *fuzz* coverage alone.
    merged = CoverageLedger(list(frontend_records)).merge(merged)
    return _finish(merged, failures, args, config)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    config = GeneratorConfig()
    if args.max_ops is not None:
        overridden = config.to_dict()
        overridden["max_ops"] = args.max_ops
        config = GeneratorConfig.from_dict(overridden)

    available = default_engines()
    if args.engines:
        unknown = sorted(set(args.engines) - set(available))
        if unknown:
            parser.error(f"unknown engine(s): {', '.join(unknown)} "
                         f"(available: {', '.join(sorted(available))})")
    if args.require_progress and args.rounds < 2:
        parser.error("--require-progress needs --rounds >= 2")
    if args.distill and not args.write_corpus:
        parser.error("--distill needs --write-corpus")
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

    plan: Optional[SteeringPlan] = None
    plan_digest: Optional[str] = None
    base_config = config
    if args.plan:
        plan = SteeringPlan.load(args.plan)
        plan_digest = plan.digest()
        config = steer_config(config, plan)
    x_probability = args.x_stimulus if args.x_stimulus is not None else (
        plan.x_probability if plan is not None else 0.0)

    engines = dict(available)
    if args.engines:
        engines = {name: factory for name, factory in engines.items()
                   if name in set(args.engines)}

    frontend_records: List = []
    frontend_failures = 0
    if args.frontends:
        frontend_records, frontend_failures = _run_frontends(args, engines)

    if not args.replay and (args.jobs > 1 or args.rounds > 1):
        engine_names = sorted(args.engines) if args.engines \
            else sorted(available)
        print(f"running seeds {args.start}..{args.start + args.seeds - 1} "
              f"({args.jobs} job(s), {args.rounds} round(s))")
        # run_rounds re-applies the plan itself, so hand it the unsteered
        # config plus the plan (round 0 steered, later rounds re-derived).
        return _run_parallel(args, base_config, engine_names, plan,
                             frontend_records, frontend_failures)

    ledger = CoverageLedger(frontend_records)
    failures = frontend_failures
    distilled_cells: Set[tuple] = set()
    distilled_written = 0

    if args.replay:
        entries = load_entries(args.replay)
        if not entries:
            print(f"no corpus entries found in {args.replay}")
            return 1
        jobs = [(entry.get("seed"), lambda e=entry: replay_entry(e))
                for _, entry in entries]
        print(f"replaying {len(entries)} corpus entr(y/ies) from "
              f"{args.replay}")
    else:
        seeds = range(args.start, args.start + args.seeds)
        jobs = [(seed, lambda s=seed: generate(s, config)) for seed in seeds]
        print(f"running seeds {args.start}..{args.start + args.seeds - 1}")

    for seed, thunk in jobs:
        generated = thunk()
        result = run_conformance(
            generated,
            transactions=args.transactions,
            seed=0 if seed is None else seed,
            engines=engines,
            roundtrip=not args.no_roundtrip,
            lanes=args.lanes,
            incremental=not args.no_incremental,
            reimport=not args.no_reimport,
            x_probability=x_probability,
            plan_digest=plan_digest,
        )
        result.seed = seed
        if result.coverage is not None:
            result.coverage.seed = seed
            ledger.add(result.coverage)

        label = generated.spec.name if seed is None else f"seed {seed}"
        if result.passed:
            if not args.quiet:
                ops = ",".join(sorted(result.coverage.ops)) or "passthrough"
                path = ("scheduled" if result.coverage.scheduled
                        else "fallback")
                print(f"  {label}: ok ({generated.statements()} stmts, "
                      f"II={generated.ii}, {path}; {ops})")
        else:
            failures += 1
            print(f"  {label}: DIVERGED")
            print("    " + "\n    ".join(result.divergences[:10]))
            command = result.repro_command()
            if command:
                print(f"    repro: {command}")
            if not args.no_shrink:
                # The predicate must reproduce *this* failure: same stimulus
                # seed, transaction count and round-trip setting, and the
                # same divergence categories.
                categories = divergence_categories(result.divergences)
                stimulus_seed = 0 if seed is None else seed

                def reproduces(spec) -> bool:
                    return spec_fails(spec,
                                      engines=engines,
                                      transactions=args.transactions,
                                      seed=stimulus_seed,
                                      roundtrip=not args.no_roundtrip,
                                      incremental="incremental" in categories,
                                      reimport="verilog-reimport" in categories,
                                      categories=categories,
                                      lanes=args.lanes,
                                      x_probability=x_probability)

                if reproduces(generated.spec):
                    minimal = shrink(generated.spec, reproduces)
                    reproducer = build(minimal)
                    print(f"    shrunk to {reproducer.statements()} "
                          f"statement(s):")
                    for line in reproducer.text().splitlines():
                        print(f"      {line}")
                else:
                    print("    (failure did not reproduce under the shrink "
                          "predicate; no reproducer printed)")

        if args.write_corpus and seed is not None:
            keep = True
            if args.distill:
                cells = cells_of_record(result.coverage)
                keep = (result.passed
                        and bool(cells - distilled_cells)
                        and distilled_written < args.corpus_limit)
                if keep:
                    distilled_cells |= cells
            if keep:
                path = write_entry(args.write_corpus,
                                   corpus_entry(generated, seed=seed,
                                                config=config))
                distilled_written += 1
                if not args.quiet:
                    print(f"    corpus entry written: {path}")

    return _finish(ledger, failures, args, config)


if __name__ == "__main__":
    sys.exit(main())
