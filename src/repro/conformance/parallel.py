"""Sharded, round-based, crash-tolerant conformance fuzzing.

The one runner of the differential matrix, at every job count: a job is a
generator seed or a corpus entry to replay, jobs split across worker
*processes* (:func:`run_shards`; one shard runs in-process), per-worker
ledgers merge back deterministically, and a round loop
(:func:`run_rounds`) re-steers generation between rounds from the merged
coverage (:mod:`repro.conformance.steering`) — run, merge, re-steer, run.

Determinism contract: the merged ledger of ``run_shards(seeds, jobs=N)`` is
*content-identical* for every ``N``, including ``N=1`` — records are
serialized at the job boundary either way and put back in job order after
the merge, so a parallel CI run and a serial local repro produce byte-equal
ledger JSON.  Workers receive only plain dicts (config, engine *names*,
corpus entries) and emit only plain dicts, which keeps both ``fork`` and
``spawn`` start methods happy.

Crash tolerance: each shard is its own ``multiprocessing.Process`` whose
sole result channel is a JSON-lines spill file appended after *every*
seed.  A worker that segfaults, is OOM-killed or wedges past the per-shard
timeout loses nothing already spilled: the parent salvages the partial
ledger, requeues the unfinished seeds (split in half on the first retry),
and if a seed keeps killing its worker it is narrowed down and recorded as
a :class:`ShardFailure` with the signal/timeout reason and a printable
repro command — one segfaulting seed no longer loses a deep-fuzz run.
Process-boundary fault injection (:class:`repro.core.faults.FaultPlan`
``kill_seeds``/``hang_seeds``) rides the same machinery, which is how the
pool's salvage logic is itself tested.

:func:`distill_corpus` is the bounded corpus keeper: walking the rounds in
order, a seed is persisted only when its record proves at least one
coverage cell no earlier kept seed proved.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal as _signal
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple, Union

from ..core.faults import FaultPlan, inject
from .corpus import corpus_entry, replay_entry, write_entry
from .coverage import CoverageLedger, CoverageRecord, cells_of_record
from .differential import ConformanceResult, default_engines, run_conformance
from .generator import GeneratorConfig, generate
from .steering import SteeringPlan, plan_from_ledger, steer_config

__all__ = ["ShardFailure", "ShardCrash", "ShardRun", "RoundResult",
           "run_shards", "run_rounds", "distill_corpus"]


@dataclass
class ShardFailure:
    """One failing job, as reported across the process boundary: a
    divergence, a job that raised, or a job whose worker kept crashing /
    timing out."""

    #: The generator seed, or a replayed entry's recorded seed (may be None).
    seed: Optional[int]
    name: str
    #: Every divergence (the shrink predicate keys on all their
    #: categories); an error's traceback; a crash kind's reason.
    divergences: List[str]
    repro: Optional[str] = None
    #: ``divergence`` (the matrix disagreed), ``error`` (the job raised),
    #: ``crash`` (the worker died on this seed even after retry) or
    #: ``timeout``.
    kind: str = "divergence"
    #: ``<Type>: <message>`` for an error; the signal / exit-code /
    #: timeout description for crash kinds.
    reason: Optional[str] = None
    #: The seeds that were still unfinished when the worker died.
    seeds: Optional[List[int]] = None
    #: The diverging program's ``ProgramSpec.to_dict()`` (what the parent
    #: shrinks); ``None`` for the other kinds.
    spec: Optional[dict] = None


@dataclass
class ShardCrash:
    """One worker death the pool absorbed: which seeds were unfinished,
    why the worker died, how many results were salvaged from its spill
    file, and whether the unfinished seeds were requeued."""

    seeds: List[int]
    reason: str
    attempt: int
    salvaged: int
    requeued: bool


@dataclass
class ShardRun:
    """The merged outcome of one sharded sweep, records and failures in
    job order."""

    records: List[CoverageRecord] = field(default_factory=list)
    failures: List[ShardFailure] = field(default_factory=list)
    jobs: int = 1
    #: Worker deaths absorbed by salvage + retry (informational: a crash
    #: that was retried successfully leaves no failure, only this trace).
    crashes: List[ShardCrash] = field(default_factory=list)

    @property
    def ledger(self) -> CoverageLedger:
        return CoverageLedger(list(self.records))

    @property
    def passed(self) -> bool:
        return not self.failures


def _job_seed(job: Union[int, dict]) -> Optional[int]:
    return job.get("seed") if isinstance(job, dict) else job


def _repro(payload: dict, job: Union[int, dict]) -> Optional[str]:
    """The repro command of one job's matrix cell: a replayed entry is
    replayed from its file (``None`` without one), a seed is generated
    again."""
    replayed = isinstance(job, dict)
    seed = None if replayed else job
    return ConformanceResult(
        name="", seed=seed, transactions=payload["transactions"],
        stimulus_seed=seed, matrix_engines=payload["engine_names"],
        lanes=payload["lanes"], roundtrip=payload["roundtrip"],
        incremental=payload["incremental"], reimport=payload["reimport"],
        x_probability=payload["x_probability"],
        plan_digest=payload["plan_digest"]).repro_command(
            job.get("path") if replayed else None)


def _unfinished(payload: dict, job: Union[int, dict], kind: str,
                reason: str) -> dict:
    """The failure dict of a job that did not finish: it raised
    (``error``) or kept killing its worker (``crash``/``timeout``).  It
    carries no spec, so it is not shrunk."""
    seed = _job_seed(job)
    return {"seed": seed,
            "name": (job["spec"]["name"] if isinstance(job, dict)
                     else f"seed-{seed}"),
            "divergences": [reason], "repro": _repro(payload, job),
            "kind": kind, "reason": reason}


def _run_one_job(job: Union[int, dict], config: GeneratorConfig,
                 engines: dict,
                 payload: dict) -> Tuple[Optional[dict], Optional[dict]]:
    """One job through the full matrix: a corpus entry rebuilt from its
    spec (a job may carry the entry's file as ``path``), or a seed
    generated under ``config``; returns plain-dict (record, failure)."""
    seed = _job_seed(job)
    generated = (replay_entry(job) if isinstance(job, dict)
                 else generate(seed, config))
    result = run_conformance(
        generated,
        transactions=payload["transactions"],
        seed=0 if seed is None else seed,
        engines=engines,
        roundtrip=payload["roundtrip"],
        lanes=payload["lanes"],
        incremental=payload["incremental"],
        reimport=payload["reimport"],
        x_probability=payload["x_probability"],
        plan_digest=payload["plan_digest"],
    )
    result.seed = seed
    record = None
    if result.coverage is not None:
        result.coverage.seed = seed
        record = result.coverage.to_dict()
    failure = None
    if not result.passed:
        failure = {
            "seed": seed,
            "name": result.name,
            "divergences": result.divergences,
            "repro": _repro(payload, job),
            "spec": generated.spec.to_dict(),
        }
    return record, failure


def _payload_engines(payload: dict) -> dict:
    names = set(payload["engine_names"])
    return {name: factory for name, factory in default_engines().items()
            if name in names}


def _run_jobs(payload: dict):
    """Run one shard's ``(index, job)`` pairs in order, yielding one plain
    dict ``{"index", "record", "failure"}`` per job — the single
    serialization point for in-process and worker runs alike, so ledger
    content cannot depend on the job count.  A job that raises becomes an
    ``error`` failure, in a worker as in this process.  First-attempt
    fault injection (``kill_seeds``/``hang_seeds``) fires *before* a job
    runs, so a salvaged spill file ends exactly at the last finished
    job."""
    plan = (FaultPlan.from_dict(payload["faults"])
            if payload.get("faults") else None)
    config = GeneratorConfig.from_dict(payload["config"])
    engines = _payload_engines(payload)
    for index, job in payload["jobs"]:
        seed = _job_seed(job)
        if plan is not None and payload.get("attempt", 0) == 0:
            if seed in plan.kill_seeds:
                os.kill(os.getpid(), _signal.SIGKILL)
            if seed in plan.hang_seeds:
                time.sleep(3600)
        with inject(plan) if plan is not None else nullcontext():
            try:
                record, failure = _run_one_job(job, config, engines,
                                               payload)
            except Exception as error:
                record, failure = None, _unfinished(
                    payload, job, "error", f"{type(error).__name__}: {error}")
                failure["divergences"] = [traceback.format_exc()]
        yield {"index": index, "record": record, "failure": failure}


def _shard_worker(payload: dict, spill_path: str) -> None:
    """Worker-process entry: run the shard's jobs, appending one JSON line
    per job to the spill file — the sole result channel, so a worker death
    after job *k* loses nothing up to *k*."""
    with open(spill_path, "w") as spill:
        for line in _run_jobs(payload):
            spill.write(json.dumps(line) + "\n")
            spill.flush()


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _salvage_spill(spill_path: Path) -> List[dict]:
    """Every complete JSON line of a spill file (a torn trailing line —
    the worker died mid-write — is dropped, not fatal)."""
    try:
        text = spill_path.read_text()
    except OSError:
        return []
    lines: List[dict] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            lines.append(json.loads(line))
        except ValueError:
            continue
    return lines


def _describe_exit(exitcode: Optional[int], timed_out: bool,
                   shard_timeout: Optional[float]) -> str:
    if timed_out:
        return f"shard timed out after {shard_timeout}s"
    if exitcode is not None and exitcode < 0:
        try:
            name = _signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        return f"worker killed by {name}"
    return f"worker exited with code {exitcode}"


def _run_sharded(payloads: List[dict], jobs: int,
                 shard_timeout: Optional[float],
                 fault_plan: Optional[FaultPlan]
                 ) -> Tuple[List[dict], List[ShardCrash]]:
    """Run shard payloads in worker processes with per-shard timeouts,
    crashed-shard salvage and split/requeue retry; returns the per-job
    lines (see :func:`_run_jobs`) and the absorbed crashes."""
    ctx = _pool_context()
    spill_dir = Path(tempfile.mkdtemp(prefix="repro-shards-"))
    results: List[dict] = []
    crashes: List[ShardCrash] = []
    pending: List[Tuple[dict, int]] = [(payload, 0) for payload in payloads]
    running: List[dict] = []
    spill_index = 0
    try:
        while pending or running:
            while pending and len(running) < max(1, jobs):
                payload, attempt = pending.pop(0)
                payload = dict(payload)
                payload["attempt"] = attempt
                if fault_plan is not None:
                    payload["faults"] = fault_plan.to_dict()
                spill = spill_dir / f"shard-{spill_index}.jsonl"
                spill_index += 1
                process = ctx.Process(target=_shard_worker,
                                      args=(payload, str(spill)))
                process.start()
                running.append({"process": process, "payload": payload,
                                "attempt": attempt, "spill": spill,
                                "started": time.monotonic()})
            entry = running.pop(0)
            process = entry["process"]
            timed_out = False
            if shard_timeout is None:
                process.join()
            else:
                deadline = entry["started"] + shard_timeout
                process.join(max(0.0, deadline - time.monotonic()))
                if process.is_alive():
                    timed_out = True
                    process.terminate()
                    process.join(5.0)
                    if process.is_alive():  # pragma: no cover - stuck D state
                        process.kill()
                        process.join()
            exitcode = process.exitcode
            lines = _salvage_spill(entry["spill"])
            results.extend(lines)
            if exitcode == 0 and not timed_out:
                continue
            payload = entry["payload"]
            attempt = entry["attempt"]
            completed = {line["index"] for line in lines}
            remaining = [(index, job) for index, job in payload["jobs"]
                         if index not in completed]
            unfinished = [_job_seed(job) for _, job in remaining]
            reason = _describe_exit(exitcode, timed_out, shard_timeout)
            requeue = bool(remaining)
            crashes.append(ShardCrash(
                seeds=unfinished, reason=reason, attempt=attempt,
                salvaged=len(completed), requeued=requeue))
            if not remaining:
                continue
            if attempt == 0:
                # First death: split the unfinished jobs in half and
                # requeue both (a transient crash clears; a poisoned job
                # gets narrowed).
                half = (len(remaining) + 1) // 2
                for chunk in (remaining[:half], remaining[half:]):
                    if chunk:
                        pending.append((dict(payload, jobs=chunk), 1))
            else:
                # Retried and died again: the first unfinished job is the
                # culprit — record it as a failure, keep going after it.
                index, job = remaining[0]
                results.append({"index": index, "record": None,
                                "failure": dict(_unfinished(
                                    payload, job,
                                    "timeout" if timed_out else "crash",
                                    reason), seeds=unfinished)})
                if remaining[1:]:
                    pending.append((dict(payload, jobs=remaining[1:]),
                                    attempt))
    finally:
        for entry in running:  # pragma: no cover - only on raise
            entry["process"].terminate()
        shutil.rmtree(spill_dir, ignore_errors=True)
    return results, crashes


def run_shards(seeds: Sequence[Union[int, dict]],
               jobs: int = 1,
               config: Optional[GeneratorConfig] = None,
               engine_names: Optional[Sequence[str]] = None,
               transactions: int = 12,
               lanes: int = 4,
               roundtrip: bool = True,
               incremental: bool = True,
               reimport: bool = True,
               x_probability: float = 0.0,
               plan_digest: Optional[str] = None,
               shard_timeout: Optional[float] = None,
               fault_plan: Optional[FaultPlan] = None) -> ShardRun:
    """Split ``seeds`` — generator seeds, or corpus entries to replay —
    over ``jobs`` workers and merge the results.

    Jobs are dealt round-robin (``seeds[i::jobs]``) so long-running jobs
    spread across workers; merged records and failures are put back in
    job order, making the output independent of shard interleaving,
    retries and salvage.  A single shard runs in-process unless
    ``shard_timeout`` or ``fault_plan`` needs a worker.
    ``shard_timeout`` bounds each worker's wall clock; crashed or
    timed-out workers are salvaged from their spill files and their
    unfinished jobs retried (split in half once, then narrowed job by
    job — see :func:`_run_sharded`).  ``fault_plan`` threads a
    :class:`~repro.core.faults.FaultPlan` into the workers (store faults
    plus first-attempt ``kill_seeds``/``hang_seeds``)."""
    config = config or GeneratorConfig()
    work = list(enumerate(seeds))
    workers = max(1, jobs)
    engine_names = sorted(engine_names if engine_names is not None
                          else default_engines())
    payloads = [{
        "jobs": work[index::workers],
        "config": config.to_dict(),
        "engine_names": engine_names,
        "transactions": transactions,
        "lanes": lanes,
        "roundtrip": roundtrip,
        "incremental": incremental,
        "reimport": reimport,
        "x_probability": x_probability,
        "plan_digest": plan_digest,
    } for index in range(min(workers, len(work)))]

    crashes: List[ShardCrash] = []
    if len(payloads) <= 1 and shard_timeout is None and fault_plan is None:
        # Serial runs stay in-process: no fork cost, and tests can
        # monkeypatch the engine registry.
        lines = [line for payload in payloads for line in _run_jobs(payload)]
    else:
        lines, crashes = _run_sharded(payloads, jobs, shard_timeout,
                                      fault_plan)
    lines.sort(key=lambda line: line["index"])
    return ShardRun(
        records=[CoverageRecord.from_dict(line["record"]) for line in lines
                 if line["record"] is not None],
        failures=[ShardFailure(**line["failure"]) for line in lines
                  if line["failure"] is not None],
        jobs=len(payloads) or 1, crashes=crashes)


@dataclass
class RoundResult:
    """One steering round: the plan that biased it (None for the blind
    round), the config actually used (its ``x_probability`` is the
    round's), and the sharded run outcome."""

    index: int
    seeds: List[int]
    config: GeneratorConfig
    run: ShardRun
    plan: Optional[SteeringPlan] = None
    plan_path: Optional[Path] = None


def run_rounds(start: int,
               total: int,
               rounds: int = 2,
               jobs: int = 1,
               config: Optional[GeneratorConfig] = None,
               engine_names: Optional[Sequence[str]] = None,
               transactions: int = 12,
               lanes: int = 4,
               roundtrip: bool = True,
               incremental: bool = True,
               reimport: bool = True,
               plan_dir: Optional[Union[str, Path]] = None,
               boost: float = 4.0,
               initial_plan: Optional[SteeringPlan] = None,
               shard_timeout: Optional[float] = None,
               x_probability: Optional[float] = None) -> List[RoundResult]:
    """Round-based steered fuzzing: run a shard sweep, merge its ledger,
    derive a :class:`SteeringPlan` from everything covered so far, and run
    the next sweep under it.

    The seed budget ``[start, start + total)`` is split evenly across
    ``rounds``; round 0 runs blind (or under ``initial_plan`` when given),
    every later round is steered by the merged coverage of all earlier
    rounds.  Plans are saved to ``plan_dir`` as ``plan-<digest>.json`` —
    the exact file name failure repro commands reference.  Each round's
    stimulus X probability is its plan's, unless ``x_probability`` sets
    it for every round."""
    base_config = config or GeneratorConfig()
    merged = CoverageLedger()
    results: List[RoundResult] = []
    next_seed = start
    for index in range(max(1, rounds)):
        size = total // max(1, rounds) + (
            1 if index < total % max(1, rounds) else 0)
        if size <= 0:
            continue
        seeds = list(range(next_seed, next_seed + size))
        next_seed += size

        plan: Optional[SteeringPlan] = initial_plan if index == 0 else None
        if index > 0:
            plan = plan_from_ledger(merged, base_config, boost=boost)
        plan_path: Optional[Path] = None
        if plan is not None:
            round_config = steer_config(base_config, plan)
            digest = plan.digest()
            if plan_dir is not None:
                plan_path = plan.save(Path(plan_dir) / f"plan-{digest}.json")
        else:
            round_config, digest = base_config, None
        if x_probability is not None:
            round_config = replace(round_config, x_probability=x_probability)

        run = run_shards(
            seeds, jobs=jobs, config=round_config,
            engine_names=engine_names, transactions=transactions,
            lanes=lanes, roundtrip=roundtrip, incremental=incremental,
            reimport=reimport,
            x_probability=round_config.x_probability, plan_digest=digest,
            shard_timeout=shard_timeout)
        merged = merged.merge(run.ledger)
        results.append(RoundResult(index=index, seeds=seeds,
                                   config=round_config, run=run,
                                   plan=plan, plan_path=plan_path))
    return results


def distill_corpus(rounds: Sequence[RoundResult],
                   directory: Union[str, Path],
                   limit: int = 25,
                   distill: bool = True) -> List[Path]:
    """Persist the rounds' generated programs as corpus entries, walking
    every round's records in order: each one, or with ``distill`` only
    coverage-adding ones, bounded.

    Distilling keeps a seed exactly when its record proves a coverage cell
    no already-kept seed proved, and stops at ``limit`` entries.  Diverging
    seeds are never kept (failures belong in shrunk regression tests, not
    the green corpus)."""
    directory = Path(directory)
    seen: Set[tuple] = set()
    written: List[Path] = []
    for round_result in rounds:
        for record in round_result.run.records:
            if distill:
                cells = cells_of_record(record)
                if record.divergences or not (cells - seen):
                    continue
                if len(written) >= limit:
                    return written
                seen |= cells
            generated = generate(record.seed, round_result.config)
            written.append(write_entry(
                directory,
                corpus_entry(generated, seed=record.seed,
                             config=round_result.config)))
    return written
