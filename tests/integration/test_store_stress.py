"""Multi-process store stress: N processes compile and simulate a mix of
shared and disjoint designs against one ``REPRO_STORE_DIR``.  Nobody may
read a corrupt artifact, no published artifact may be lost, and the
per-process stats must add up.  The store holds only native ``.so``
kernels, so these tests need a C compiler."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.store import ArtifactStore
from repro.sim import compiler_available

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Worker body: compile + native-simulate each assigned design, then dump
#: the artifact digests and the process's store stats as JSON.
_WORKER = """
import hashlib, json, sys
from repro.core.session import CompilationSession
from repro.core.store import default_store
from repro.evaluation.compile_time import chain_program
from repro.sim.simulator import Simulator

designs = json.loads(sys.argv[1])
digests = {}
for label, (depth, salt) in designs.items():
    program, entry = chain_program(depth, salt=salt)
    session = CompilationSession(program)
    verilog = session.verilog(entry)
    sim = Simulator(session.calyx(entry), entry, mode="native")
    sim.prepare()
    digests[label] = hashlib.sha256(verilog.encode()).hexdigest()
store = default_store()
assert store is not None, "REPRO_STORE_DIR did not install a store"
print(json.dumps({"digests": digests, "stats": store.stats_dict()}))
"""


def _run_workers(store_root, assignments, timeout=300):
    env = dict(os.environ, PYTHONPATH=_SRC,
               REPRO_STORE_DIR=str(store_root))
    env.pop("REPRO_FAULTS", None)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WORKER, json.dumps(designs)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        for designs in assignments
    ]
    results = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=timeout)
        assert proc.returncode == 0, stderr
        results.append(json.loads(stdout.strip().splitlines()[-1]))
    return results


def _check(results, store_root, assignments):
    # 1. No corrupt reads, no quarantines anywhere.
    for result in results:
        assert result["stats"]["corrupt"] == 0
        assert result["stats"]["quarantined"] == 0
    # 2. Shared designs produced byte-identical Verilog in every process.
    by_label = {}
    for result in results:
        for label, digest in result["digests"].items():
            by_label.setdefault(label, set()).add(digest)
    for label, digests in by_label.items():
        assert len(digests) == 1, f"{label} diverged across processes"
    # 3. No lost artifacts: every published entry is still readable and
    #    verifies, and the store holds entries for the work done.
    store = ArtifactStore(store_root)
    assert store.entry_count() > 0
    for _mtime, _size, payload in store._scan():
        namespace = payload.parent.name
        key = payload.stem
        assert store.get_bytes(namespace, key) is not None, (
            f"{namespace}/{key} lost or corrupt")
    assert store.stats["corrupt"] == 0
    # 4. Stats add up: every probe is a hit or a miss, every publish a
    #    write or a recorded failure.
    total = {"hits": 0, "misses": 0, "writes": 0, "write_failures": 0}
    for result in results:
        for key in total:
            total[key] += result["stats"][key]
    assert total["hits"] + total["misses"] > 0
    assert total["writes"] > 0
    designs = {label for designs in assignments for label in designs}
    # At least one artifact publish per distinct design made it through.
    assert total["writes"] >= len(designs)


needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler on host: nothing is "
                                     "stored")


@needs_cc
def test_concurrent_processes_share_one_store(tmp_path):
    shared = {"shared-a": (5, 11), "shared-b": (3, 22)}
    assignments = [
        dict(shared, **{f"own-{index}": (2 + index, 100 + index)})
        for index in range(3)
    ]
    results = _run_workers(tmp_path / "store", assignments)
    _check(results, tmp_path / "store", assignments)
    # The shared designs were compiled by three processes but published
    # at most a handful of times (races may double-publish; the content
    # address makes that harmless).
    store = ArtifactStore(tmp_path / "store")
    assert store.entry_count() >= len({label
                                       for a in assignments for label in a})


@needs_cc
@pytest.mark.deep
def test_concurrent_store_stress_deep(tmp_path):
    shared = {f"shared-{i}": (4 + i, 10 + i) for i in range(4)}
    assignments = [
        dict(shared, **{f"own-{index}-{j}": (2 + j, 1000 + 10 * index + j)
                        for j in range(2)})
        for index in range(6)
    ]
    results = _run_workers(tmp_path / "store", assignments, timeout=600)
    _check(results, tmp_path / "store", assignments)
