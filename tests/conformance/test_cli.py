"""The ``python -m repro.conformance`` driver: seed runs, corpus replay,
corpus minting, ledger output, sharded/steered runs, the promise that
every printed repro command actually reproduces its failure, and that no
flag changes meaning with ``--jobs``."""

import json
import shlex
from pathlib import Path

import pytest

from repro.conformance import ConformanceResult
from repro.conformance import parallel as parallel_module
from repro.conformance.__main__ import main
from repro.conformance.differential import default_engines
from repro.sim.values import is_x

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: A two-engine matrix without the slow ways, for job-count comparisons.
_FAST = ["--transactions", "4", "--lanes", "1", "--engine", "scheduled",
         "--engine", "fixpoint", "--no-roundtrip", "--no-incremental"]


@pytest.fixture
def worker_pools(monkeypatch):
    """The shard count of every worker pool the runner starts."""
    pools = []
    real = parallel_module._run_sharded

    def spy(payloads, *rest):
        pools.append(len(payloads))
        return real(payloads, *rest)

    monkeypatch.setattr(parallel_module, "_run_sharded", spy)
    return pools


def test_seed_run_writes_a_ledger(tmp_path, capsys):
    ledger = tmp_path / "ledger.json"
    assert main(["--seeds", "3", "--transactions", "4", "--quiet",
                 "--ledger", str(ledger)]) == 0
    data = json.loads(ledger.read_text())
    assert data["programs"] == 3
    assert data["divergences"] == 0
    assert data["engine_paths"]["scheduled"] == 3
    out = capsys.readouterr().out
    assert "all programs agree" in out


def test_no_incremental_flag_skips_the_way(tmp_path, capsys):
    ledger = tmp_path / "ledger.json"
    assert main(["--seeds", "3", "--transactions", "4", "--quiet",
                 "--no-incremental", "--ledger", str(ledger)]) == 0
    data = json.loads(ledger.read_text())
    assert data["incremental_mutations"] == {}
    assert all(not record["incremental"] for record in data["records"])


def test_incremental_way_lands_in_the_ledger(tmp_path, capsys):
    ledger = tmp_path / "ledger.json"
    assert main(["--seeds", "4", "--transactions", "4", "--quiet",
                 "--ledger", str(ledger)]) == 0
    data = json.loads(ledger.read_text())
    assert sum(data["incremental_mutations"].values()) >= 1
    assert "incremental recompiles" in capsys.readouterr().out


def test_replay_of_committed_corpus(capsys):
    assert main(["--replay", str(CORPUS_DIR), "--quiet",
                 "--transactions", "4"]) == 0
    assert "replaying" in capsys.readouterr().out


def test_corpus_minting(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["--seeds", "2", "--transactions", "4", "--quiet",
                 "--write-corpus", str(corpus)]) == 0
    written = sorted(path.name for path in corpus.glob("*.json"))
    assert written == ["gen0.json", "gen1.json"]
    # ... and the freshly minted corpus replays.
    assert main(["--replay", str(corpus), "--quiet",
                 "--transactions", "4"]) == 0


def test_max_ops_override(tmp_path, capsys):
    assert main(["--seeds", "2", "--transactions", "4",
                 "--max-ops", "3"]) == 0
    assert "ok" in capsys.readouterr().out


def test_max_ops_below_the_generator_minimum_is_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--seeds", "1", "--max-ops", "2"])
    assert "--max-ops needs N >= 3" in capsys.readouterr().err


def test_write_corpus_does_not_apply_to_a_replay(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["--replay", str(CORPUS_DIR), "--write-corpus", str(tmp_path)])
    assert "--replay" in capsys.readouterr().err


def test_empty_seed_range_says_so(capsys):
    assert main(["--seeds", "0", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "running no generator seeds" in out
    assert "..-1" not in out


def test_x_stimulus_is_the_same_at_every_job_count(tmp_path):
    ledgers = []
    for jobs in ("1", "2"):
        ledger = tmp_path / f"ledger-{jobs}.json"
        assert main(["--seeds", "4", "--jobs", jobs, "--x-stimulus", "0.5",
                     "--quiet", "--ledger", str(ledger), *_FAST]) == 0
        ledgers.append(ledger.read_bytes())
    assert ledgers[0] == ledgers[1]
    records = json.loads(ledgers[1])["records"]
    assert sum(record["x_transactions"] for record in records) > 0


def test_write_corpus_keeps_every_seed_without_distill(tmp_path):
    """Nothing is distilled without --distill, so --corpus-limit (the bound
    on distilled entries) does not cut the corpus, at any job count."""
    corpora = []
    for jobs in ("1", "2"):
        corpus = tmp_path / f"corpus-{jobs}"
        assert main(["--seeds", "3", "--jobs", jobs, "--corpus-limit", "1",
                     "--quiet", "--write-corpus", str(corpus), *_FAST]) == 0
        corpora.append({path.name: path.read_bytes()
                        for path in corpus.glob("*.json")})
    assert sorted(corpora[1]) == ["gen0.json", "gen1.json", "gen2.json"]
    assert corpora[0] == corpora[1]


def test_replay_shards_and_keeps_file_name_order(tmp_path, worker_pools):
    ledgers = []
    for jobs in ("1", "2"):
        ledger = tmp_path / f"ledger-{jobs}.json"
        assert main(["--replay", str(CORPUS_DIR), "--jobs", jobs,
                     "--transactions", "4", "--quiet",
                     "--ledger", str(ledger)]) == 0
        ledgers.append(ledger.read_bytes())
    assert worker_pools == [2]
    assert ledgers[0] == ledgers[1]
    names = [record["name"] for record in json.loads(ledgers[1])["records"]]
    assert names == [json.loads(path.read_text())["spec"]["name"]
                     for path in sorted(CORPUS_DIR.glob("*.json"))]


def test_shard_timeout_puts_a_single_shard_in_a_worker(worker_pools):
    assert main(["--seeds", "2", "--shard-timeout", "600", "--quiet",
                 *_FAST]) == 0
    assert worker_pools == [1]


def test_unknown_engine_is_rejected_with_the_available_set(capsys):
    with pytest.raises(SystemExit):
        main(["--seeds", "1", "--engine", "quantum"])
    err = capsys.readouterr().err
    assert "unknown engine(s): quantum" in err
    assert "scheduled" in err


def test_parallel_steered_run_end_to_end(tmp_path, capsys):
    """The full coverage-guided flow: blind round, re-steer, steered round,
    progress check, merged ledger, saved plan, distilled corpus."""
    ledger = tmp_path / "ledger.json"
    plan = tmp_path / "plan.json"
    corpus = tmp_path / "corpus"
    assert main(["--seeds", "6", "--jobs", "2", "--rounds", "2",
                 "--require-progress", "--transactions", "4",
                 "--lanes", "1", "--engine", "scheduled",
                 "--engine", "fixpoint", "--no-roundtrip",
                 "--no-incremental", "--ledger", str(ledger),
                 "--save-plan", str(plan), "--write-corpus", str(corpus),
                 "--distill", "--corpus-limit", "4", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "round 1/2" in out and "round 2/2" in out
    assert "progress: steering added" in out
    assert "distilled corpus:" in out

    data = json.loads(ledger.read_text())
    assert data["programs"] == 6
    assert data["cell_coverage"]["covered"] > 0
    # Round 2's plan file sits next to --save-plan, digest-addressed.
    saved = json.loads(plan.read_text())
    assert saved["version"] == 1 and saved["op_weights"]
    assert list(tmp_path.glob("plan-*.json"))
    assert 0 < len(list(corpus.glob("*.json"))) <= 4
    # The distilled corpus replays clean.
    assert main(["--replay", str(corpus), "--quiet",
                 "--transactions", "4"]) == 0


def test_require_progress_needs_rounds(capsys):
    with pytest.raises(SystemExit):
        main(["--seeds", "2", "--require-progress"])
    assert "--rounds" in capsys.readouterr().err


def test_repro_command_encodes_the_exact_matrix_cell():
    result = ConformanceResult(
        name="Gen7", seed=7, transactions=5, stimulus_seed=7,
        matrix_engines=["scheduled", "fixpoint"], lanes=2,
        roundtrip=False, incremental=False, x_probability=0.25,
        plan_digest="deadbeef0123")
    assert result.repro_command() == (
        "python -m repro.conformance --start 7 --seeds 1 --transactions 5 "
        "--lanes 2 --engine fixpoint --engine scheduled --no-roundtrip "
        "--no-incremental --x-stimulus 0.25 --plan plan-deadbeef0123.json")
    # Default matrix -> no --engine flags; corpus replays have no seed.
    default = ConformanceResult(
        name="Gen7", seed=7, transactions=12, stimulus_seed=7,
        matrix_engines=["compiled", "fixpoint", "native", "scheduled"],
        lanes=4)
    assert "--engine" not in default.repro_command()
    assert ConformanceResult(
        name="Gen7", seed=None, transactions=12,
        stimulus_seed=0).repro_command() is None


def _lying_engines():
    """A matrix with one engine that flips the low bit of every defined
    trace value — every seed must diverge."""
    base = default_engines()

    def lying_factory(calyx, entry):
        inner = base["scheduled"](calyx, entry)

        class Lying:
            def run_batch(self, stimulus):
                return [{port: (value if is_x(value) else value ^ 1)
                         for port, value in cycle.items()}
                        for cycle in inner.run_batch(stimulus)]

        return Lying()

    return {"fixpoint": base["fixpoint"], "lying": lying_factory}


def test_printed_repro_command_actually_reproduces(monkeypatch, capsys):
    """Satellite guarantee: the one-liner printed with a differential
    failure re-runs exactly that failing matrix cell."""
    monkeypatch.setattr(parallel_module, "default_engines", _lying_engines)
    assert main(["--start", "3", "--seeds", "1", "--transactions", "4",
                 "--lanes", "1", "--no-roundtrip", "--no-incremental",
                 "--no-shrink", "--quiet"]) == 1
    out = capsys.readouterr().out
    repro_lines = [line for line in out.splitlines() if "repro:" in line]
    assert repro_lines, out
    command = shlex.split(repro_lines[0].split("repro:", 1)[1])
    assert command[:3] == ["python", "-m", "repro.conformance"]

    # Re-run the printed arguments through the same entry point: the
    # failure must come back, at the same seed and engine matrix.
    rerun = command[3:] + ["--no-shrink", "--quiet"]
    assert "--start 3" in " ".join(rerun)
    assert main(rerun) == 1
    assert "DIVERGED" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_divergences_shrink_at_every_job_count(monkeypatch, capsys, jobs):
    """Shrinking runs in the parent, so a sharded failure shrinks too."""
    monkeypatch.setattr(parallel_module, "default_engines", _lying_engines)
    assert main(["--start", "3", "--seeds", "2", "--jobs", jobs,
                 "--transactions", "4", "--lanes", "1", "--no-roundtrip",
                 "--no-incremental", "--quiet"]) == 1
    out = capsys.readouterr().out
    assert out.count("DIVERGED") == 2
    assert out.count("shrunk to") == 2
