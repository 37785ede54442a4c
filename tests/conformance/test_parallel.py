"""Sharded conformance runs: determinism across job counts, the steering
round loop, failure transport across the process boundary, and bounded
corpus distillation."""

import json
from pathlib import Path

import pytest

from repro.conformance import (
    CoverageLedger,
    GeneratorConfig,
    cells_of_record,
    distill_corpus,
    load_entries,
    plan_from_ledger,
    replay_entry,
    run_rounds,
    run_shards,
)
from repro.conformance import parallel as parallel_module
from repro.conformance.differential import default_engines
from repro.conformance.parallel import ShardFailure
from repro.core.faults import FaultPlan
from repro.sim.values import is_x

_FAST = dict(engine_names=("scheduled", "fixpoint"), transactions=4,
             lanes=1, roundtrip=False, incremental=False)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def _ledger_json(run):
    return json.dumps(run.ledger.to_dict(), sort_keys=True)


def test_job_count_does_not_change_the_ledger():
    """The determinism contract: a parallel CI sweep and a serial local
    repro produce byte-equal ledger JSON."""
    serial = run_shards(range(0, 6), jobs=1, config=GeneratorConfig(),
                        **_FAST)
    sharded = run_shards(range(0, 6), jobs=2, config=GeneratorConfig(),
                         **_FAST)
    assert serial.passed and sharded.passed
    assert serial.jobs == 1 and sharded.jobs == 2
    assert _ledger_json(serial) == _ledger_json(sharded)


@pytest.mark.deep
def test_job_count_does_not_change_the_full_matrix_ledger():
    """The same contract over the full default 4-engine matrix with the
    lane, round-trip and incremental ways enabled, at jobs=4."""
    serial = run_shards(range(0, 12), jobs=1, transactions=6, lanes=2)
    sharded = run_shards(range(0, 12), jobs=4, transactions=6, lanes=2)
    assert _ledger_json(serial) == _ledger_json(sharded)


def test_excess_jobs_collapse_to_the_populated_shards():
    run = run_shards(range(0, 2), jobs=8, config=GeneratorConfig(), **_FAST)
    assert run.jobs == 2
    assert [record.seed for record in run.records] == [0, 1]


def test_rounds_re_steer_from_merged_coverage(tmp_path):
    rounds = run_rounds(start=0, total=8, rounds=2, jobs=1,
                        plan_dir=tmp_path, **_FAST)
    assert [r.index for r in rounds] == [0, 1]
    blind, steered = rounds
    assert blind.plan is None
    assert blind.seeds == list(range(0, 4))
    assert all(record.plan_digest is None for record in blind.run.records)

    assert steered.plan is not None
    assert steered.seeds == list(range(4, 8))
    digest = steered.plan.digest()
    assert steered.plan_path == tmp_path / f"plan-{digest}.json"
    assert steered.plan_path.exists()
    assert all(record.plan_digest == digest
               for record in steered.run.records)


def test_initial_plan_steers_the_first_round(tmp_path):
    plan = plan_from_ledger(CoverageLedger())
    rounds = run_rounds(start=0, total=2, rounds=1, jobs=1,
                        plan_dir=tmp_path, initial_plan=plan, **_FAST)
    assert rounds[0].plan is plan
    assert all(record.plan_digest == plan.digest()
               for record in rounds[0].run.records)


def test_shard_failures_carry_repro_commands(monkeypatch):
    """Divergences survive the worker serialization boundary with their
    one-line repro command attached."""
    base = default_engines()

    def lying_factory(calyx, entry):
        inner = base["scheduled"](calyx, entry)

        class Lying:
            def run_batch(self, stimulus):
                return [{port: (value if is_x(value) else value ^ 1)
                         for port, value in cycle.items()}
                        for cycle in inner.run_batch(stimulus)]

        return Lying()

    monkeypatch.setattr(
        parallel_module, "default_engines",
        lambda: {"fixpoint": base["fixpoint"], "lying": lying_factory})
    run = run_shards(range(0, 2), jobs=1, transactions=4, lanes=1,
                     roundtrip=False, incremental=False)
    assert not run.passed
    assert [failure.seed for failure in run.failures] == [0, 1]
    for failure in run.failures:
        assert failure.divergences
        assert failure.repro is not None
        assert f"--start {failure.seed} --seeds 1" in failure.repro
        assert "--engine fixpoint --engine lying" in failure.repro


def test_legacy_failure_dicts_default_the_new_fields():
    """Old worker payloads (and old persisted failures) predate
    kind/reason/seeds; ``ShardFailure(**d)`` must keep accepting them."""
    failure = ShardFailure(**{"seed": 3, "name": "x", "divergences": ["d"],
                              "repro": None})
    assert failure.kind == "divergence"
    assert failure.reason is None and failure.seeds is None


def test_killed_worker_is_salvaged_and_retried():
    """A worker SIGKILLed mid-shard (first attempt) loses nothing: the
    seeds it finished are salvaged from its spill file, the rest are
    requeued, and the merged ledger is byte-equal to a fault-free serial
    run."""
    plan = FaultPlan(kill_seeds=(2,))
    faulted = run_shards(range(0, 6), jobs=2, fault_plan=plan,
                         config=GeneratorConfig(), **_FAST)
    assert faulted.passed  # the retry (attempt 1) skips the injection
    assert faulted.crashes
    crash = faulted.crashes[0]
    assert "SIGKILL" in crash.reason
    assert 2 in crash.seeds and crash.requeued
    serial = run_shards(range(0, 6), jobs=1, config=GeneratorConfig(),
                        **_FAST)
    assert _ledger_json(faulted) == _ledger_json(serial)


def test_replayed_entries_survive_a_worker_kill_in_file_name_order():
    """Corpus entries are jobs like seeds: a killed worker's entries are
    salvaged and retried by job index, and the merged records keep the
    corpus's file-name order (not seed order) at every job count."""
    entries = [entry for _, entry in load_entries(CORPUS_DIR)]
    plan = FaultPlan(kill_seeds=(entries[1]["seed"],))
    faulted = run_shards(entries, jobs=2, fault_plan=plan, **_FAST)
    assert faulted.passed and faulted.crashes
    serial = run_shards(entries, jobs=1, **_FAST)
    assert _ledger_json(faulted) == _ledger_json(serial)
    assert [record.name for record in faulted.records] == [
        entry["spec"]["name"] for entry in entries]


def test_hung_worker_times_out_and_is_retried():
    """A wedged worker is killed at the per-shard timeout; its unfinished
    seeds are retried and the ledger still matches the serial run."""
    plan = FaultPlan(hang_seeds=(1,))
    faulted = run_shards(range(0, 4), jobs=2, fault_plan=plan,
                         shard_timeout=10.0, config=GeneratorConfig(),
                         **_FAST)
    assert faulted.passed
    assert any("timed out" in crash.reason for crash in faulted.crashes)
    serial = run_shards(range(0, 4), jobs=1, config=GeneratorConfig(),
                        **_FAST)
    assert _ledger_json(faulted) == _ledger_json(serial)


def test_persistently_crashing_seed_becomes_a_shard_failure(monkeypatch):
    """A seed that kills its worker on every attempt is narrowed down and
    reported as a crash ShardFailure with a repro command — the exception
    never escapes run_shards, and the other seeds still complete."""
    plan = FaultPlan(kill_seeds=(1,))
    # Make retries crash too: requeued payloads keep attempt >= 1, so
    # patch the worker to honor kill_seeds on every attempt.
    real_worker = parallel_module._shard_worker

    def always_kill(payload, spill_path):
        payload = dict(payload)
        payload["attempt"] = 0
        real_worker(payload, spill_path)

    monkeypatch.setattr(parallel_module, "_shard_worker", always_kill)
    run = run_shards(range(0, 4), jobs=2, fault_plan=plan,
                     config=GeneratorConfig(), **_FAST)
    assert not run.passed
    crash_failures = [f for f in run.failures if f.kind == "crash"]
    assert [f.seed for f in crash_failures] == [1]
    assert "SIGKILL" in crash_failures[0].reason
    assert "--start 1 --seeds 1" in crash_failures[0].repro
    # Every other seed still made it into the ledger.
    assert sorted(r.seed for r in run.records) == [0, 2, 3]


def test_distill_keeps_only_coverage_adding_seeds(tmp_path):
    rounds = run_rounds(start=0, total=6, rounds=2, jobs=1,
                        plan_dir=tmp_path, **_FAST)
    corpus = tmp_path / "corpus"
    written = distill_corpus(rounds, corpus, limit=3)
    assert 0 < len(written) <= 3
    entries = load_entries(corpus)
    assert len(entries) == len(written)
    for _, entry in entries:
        replay_entry(entry)  # digest + regeneration must check out
    # Rebuilding coverage from the kept seeds only: every entry earned its
    # place by proving at least one cell the earlier ones did not.
    records = {record.seed: record
               for round_result in rounds
               for record in round_result.run.records}
    seen = set()
    for _, entry in entries:
        cells = cells_of_record(records[entry["seed"]])
        assert cells - seen
        seen |= cells
