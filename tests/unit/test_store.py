"""The crash-safe artifact store: publish atomicity, verify-on-read,
quarantine, pruning under grace, the process-default plumbing, and the
compile sessions that never touch it."""

import json
import os

import pytest

from repro.core import store as store_module
from repro.core.session import CompilationSession
from repro.core.store import (
    ArtifactStore,
    default_store,
    reset_default_store,
    set_default_store,
)
from repro.evaluation.compile_time import chain_program


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture(autouse=True)
def _restore_default_store():
    yield
    reset_default_store()


def test_round_trip_bytes_and_text(store):
    assert store.put_bytes("ns", "k", b"payload")
    assert store.get_bytes("ns", "k") == b"payload"
    assert store.put_bytes("ns", "t", "text ✓".encode())
    assert store.get_bytes("ns", "t") == "text ✓".encode()
    assert store.stats["writes"] == 2
    assert store.stats["hits"] == 2
    assert store.get_bytes("ns", "absent") is None
    assert store.stats["misses"] == 1


def test_put_file_and_get_path(store, tmp_path):
    source = tmp_path / "artifact.so"
    source.write_bytes(b"\x7fELF fake")
    assert store.put_file("native", "k", source)
    path = store.get_path("native", "k")
    assert path is not None and path.read_bytes() == b"\x7fELF fake"


def test_keys_are_sanitized_to_safe_filenames(store):
    assert store.put_bytes("ns", "a/b:c d", b"v")
    assert store.get_bytes("ns", "a/b:c d") == b"v"
    names = [p.name for p in (store.base / "ns").iterdir()]
    for name in names:
        assert "/" not in name and ":" not in name and " " not in name


def test_corrupt_payload_is_quarantined_not_returned(store):
    store.put_bytes("ns", "k", b"good bytes")
    payload, _meta = store._entry_paths("ns", "k")
    payload.write_bytes(b"bad bytes!")
    assert store.get_bytes("ns", "k") is None
    assert store.stats["corrupt"] == 1
    assert store.stats["quarantined"] == 1
    # The torn entry moved aside for post-mortem rather than being trusted.
    quarantined = list(store.quarantine_dir.iterdir())
    assert any("digest-mismatch" in p.name for p in quarantined)
    # The slot is rebuildable and trustworthy again after a fresh publish.
    assert store.put_bytes("ns", "k", b"good bytes")
    assert store.get_bytes("ns", "k") == b"good bytes"


def test_torn_meta_sidecar_is_treated_as_a_miss(store):
    store.put_bytes("ns", "k", b"payload")
    _payload, meta = store._entry_paths("ns", "k")
    meta.write_text('{"version": 1, "sha256"')  # torn mid-write
    assert store.get_bytes("ns", "k") is None
    assert store.get_bytes("ns", "k") is None  # stays a clean miss


def test_schema_version_mismatch_is_a_miss(store):
    store.put_bytes("ns", "k", b"payload")
    _payload, meta = store._entry_paths("ns", "k")
    data = json.loads(meta.read_text())
    data["version"] = 999
    meta.write_text(json.dumps(data))
    assert store.get_bytes("ns", "k") is None


def test_prune_evicts_oldest_beyond_limit(tmp_path):
    store = ArtifactStore(tmp_path, limit_bytes=10**9, prune_grace=0.0)
    for index in range(8):
        store.put_bytes("ns", f"k{index}", bytes([index]) * 100)
        os.utime(store._entry_paths("ns", f"k{index}")[0],
                 (index, index))  # deterministic age order
    store.limit_bytes = 300
    evicted = store.prune()
    assert evicted >= 5
    assert store.total_bytes() <= 300
    # Newest entries survive, oldest are gone.
    assert store.get_bytes("ns", "k7") is not None
    assert store.get_bytes("ns", "k0") is None


def test_prune_grace_protects_recent_entries(tmp_path):
    store = ArtifactStore(tmp_path, limit_bytes=10, prune_grace=3600.0)
    store.put_bytes("ns", "fresh", b"x" * 100)
    assert store.prune() == 0  # within grace: a concurrent writer may race
    assert store.get_bytes("ns", "fresh") == b"x" * 100


def test_prune_sweeps_stale_tmp_and_orphans(tmp_path):
    store = ArtifactStore(tmp_path, prune_grace=0.0)
    store.put_bytes("ns", "keep", b"payload")
    ns_dir = store.base / "ns"
    (ns_dir / "stale.tmp").write_bytes(b"torn tmp")
    (ns_dir / "orphan.bin").write_bytes(b"payload without meta")
    old = 1.0
    os.utime(ns_dir / "stale.tmp", (old, old))
    os.utime(ns_dir / "orphan.bin", (old, old))
    store.prune()
    assert not (ns_dir / "stale.tmp").exists()
    assert not (ns_dir / "orphan.bin").exists()
    assert store.get_bytes("ns", "keep") == b"payload"


def test_prune_tolerates_entries_vanishing_mid_scan(tmp_path, monkeypatch):
    """The satellite fix: a concurrent process unlinking an entry between
    the scan and the stat/unlink must not break pruning."""
    store = ArtifactStore(tmp_path, limit_bytes=10**9, prune_grace=0.0)
    for index in range(4):
        store.put_bytes("ns", f"k{index}", b"x" * 50)
    store.limit_bytes = 1

    real_scan = store._scan

    def racing_scan():
        entries = real_scan()
        for _mtime, _size, path in entries[:2]:
            path.unlink(missing_ok=True)  # another process got there first
        return entries

    monkeypatch.setattr(store, "_scan", racing_scan)
    store.prune()  # must not raise
    assert store.total_bytes() <= 100


def test_writes_trigger_bounded_pruning(tmp_path):
    store = ArtifactStore(tmp_path, limit_bytes=500, prune_grace=0.0)
    for index in range(40):
        store.put_bytes("ns", f"k{index}", bytes([index % 250]) * 100)
    assert store.total_bytes() <= 500 + 200  # bounded, modulo in-flight slack
    assert store.stats["evicted"] > 0


def test_default_store_env_and_override(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    reset_default_store()
    assert default_store() is None
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env-store"))
    first = default_store()
    assert first is not None and first.root == tmp_path / "env-store"
    assert default_store() is first  # memoized per root+limit
    pinned = ArtifactStore(tmp_path / "pinned")
    token = set_default_store(pinned)
    assert default_store() is pinned
    reset_default_store(token)
    assert default_store() is not pinned


def test_store_limit_env_knob(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_LIMIT", "12345")
    assert ArtifactStore(tmp_path).limit_bytes == 12345


def test_concurrent_lock_is_exclusive(store):
    with store._lock("test") as held:
        assert held
        with store._lock("test", timeout=0.1) as second:
            assert not second  # same-process re-entry degrades, not deadlocks
    assert any("lock" in d["reason"] for d in store.degradations)


# -- compile artifacts stay in memory ------------------------------------------

def test_compile_cache_never_touches_the_store(tmp_path):
    """Compile artifacts live only in each session's memo table: two
    sessions compiling one program to Verilog write nothing to the
    configured store."""
    store = ArtifactStore(tmp_path)
    token = set_default_store(store)
    try:
        program, entrypoint = chain_program(3)
        texts = [CompilationSession(program).verilog(entrypoint)
                 for _ in range(2)]
        assert texts[0] == texts[1] and "module Chain2" in texts[0]
        assert store.stats["writes"] == 0
        assert store.entry_count() == 0
    finally:
        reset_default_store(token)
