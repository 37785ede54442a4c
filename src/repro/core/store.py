"""The crash-safe, content-addressed on-disk artifact store, and the one
bounded in-memory cache every digest-keyed tier uses.

:class:`DigestCache` is the process-wide LRU behind the engine plan cache
(:mod:`repro.sim.engine`), the generated Python kernel chunk cache
(:mod:`repro.sim.codegen`) and the loaded native program cache
(:mod:`repro.sim.native`): a fixed bound, least-recently-used eviction,
and hit / miss / eviction counters.  Compile artifacts are not among
them: they live in each session's own memo table
(:mod:`repro.core.queries`).  Those caches are memory-only except the
native tier, whose compiled ``.so`` kernels are the one artifact a fresh
process measurably gains from finding on disk (it skips ``cc``): they go
to an :class:`ArtifactStore`, keyed by a digest of their C text.  A store
that serves ``.so`` files to many processes must survive torn writes,
corruption, full disks and crashed writers without ever returning a wrong
artifact — faults may cost a miss and a rebuild, never correctness.

Layout (``<root>/v1/``; bump :data:`SCHEMA_VERSION` to invalidate)::

    v1/<namespace>/<key>.bin     the payload, published atomically
    v1/<namespace>/<key>.json    sidecar: schema version, sha256, size
    v1/quarantine/               corrupt/torn entries, moved aside
    v1/.lock                     cross-process flock for prune/quarantine

The native tier writes the single namespace ``native``.

Crash safety is the classic tmp + ``os.replace`` protocol, payload before
meta: a reader only trusts an entry whose sidecar parses, matches the
schema version, *and* whose payload hashes to the recorded sha256 — so a
crash between the two publishes leaves an invisible orphan (pruned later),
never a half-entry served as truth.  Every read re-verifies the digest;
mismatches quarantine the entry (with the reason) and report a miss, and
the caller rebuilds.  Pruning runs under the cross-process lock, skips
entries younger than a grace period (a concurrent writer may be about to
read its own publish) and tolerates entries vanishing mid-scan.

Every I/O boundary consults :mod:`repro.core.faults`, which is how the
``faults`` conformance way drives torn writes, bit flips, ENOSPC, EPERM,
stale locks and crash-between-write-and-rename through this code
deterministically.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Tuple, Union

from . import faults

try:  # posix
    import fcntl
except ImportError:  # pragma: no cover - windows fallback
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "SCHEMA_VERSION",
    "DigestCache",
    "ArtifactStore",
    "default_store",
    "set_default_store",
    "reset_default_store",
]

#: Bump to invalidate every on-disk entry (the versioned tree root).
SCHEMA_VERSION = 1

#: Default size bound (bytes) when ``REPRO_STORE_LIMIT`` is unset.
_DEFAULT_LIMIT = 512 * 1024 * 1024

_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def _sanitize(name: str) -> str:
    """A filesystem-safe single path segment (no separators, no dotdot)."""
    cleaned = _SAFE.sub("_", name)
    return cleaned or "_"


class DigestCache:
    """A bounded LRU from content digests to built artifacts.

    :meth:`get` counts a hit and refreshes the entry; :meth:`put` counts a
    miss (the caller just built the value) and evicts least-recently-used
    entries past ``bound``, counting each eviction.  ``in`` is a presence
    probe that counts nothing and refreshes nothing.  Values are never
    ``None``: :meth:`get` returns ``None`` for an absent key."""

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evicted = 0

    def get(self, key: Hashable):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        self.misses += 1
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.bound:
            self._entries.popitem(last=False)
            self.evicted += 1

    def count_hits(self, n: int) -> None:
        """Count ``n`` hits that a memo in front of the cache served."""
        self.hits += n

    def clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = self.evicted = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evicted": self.evicted, "entries": len(self._entries),
                "limit": self.bound}


def _env_limit() -> int:
    raw = os.environ.get("REPRO_STORE_LIMIT")
    if raw:
        try:
            parsed = int(raw)
        except ValueError:
            return _DEFAULT_LIMIT
        if parsed >= 0:
            return parsed
    return _DEFAULT_LIMIT


class ArtifactStore:
    """One on-disk artifact store rooted at ``root``.

    ``limit_bytes`` bounds the total payload size (``REPRO_STORE_LIMIT``
    or 512 MiB by default); ``prune_grace`` protects entries younger than
    that many seconds from pruning (concurrent writers); with
    ``require_private`` every served payload must be owned by this uid and
    not group/other-writable — the native tier demands that before
    ``ctypes.CDLL``-ing artifacts out of a shared temp directory."""

    def __init__(self, root: Union[str, Path],
                 limit_bytes: Optional[int] = None,
                 prune_grace: float = 60.0,
                 require_private: bool = False) -> None:
        self.root = Path(root)
        self.limit_bytes = (_env_limit() if limit_bytes is None
                            else limit_bytes)
        self.prune_grace = prune_grace
        self.require_private = require_private
        self.base = self.root / f"v{SCHEMA_VERSION}"
        self.quarantine_dir = self.base / "quarantine"
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "writes": 0, "write_failures": 0,
            "corrupt": 0, "quarantined": 0, "evicted": 0, "lock_skips": 0,
        }
        #: Every degradation this store observed: ``{"site", "reason"}``.
        #: Faults land here (never in wrong artifacts); the conformance
        #: ledger records the reasons.
        self.degradations: List[Dict[str, str]] = []
        self._approx_bytes: Optional[int] = None

    # -- paths -----------------------------------------------------------------

    def _entry_paths(self, namespace: str, key: str) -> Tuple[Path, Path]:
        directory = self.base / _sanitize(namespace)
        stem = _sanitize(key)
        return directory / f"{stem}.bin", directory / f"{stem}.json"

    def _degrade(self, site: str, reason: str) -> None:
        self.degradations.append({"site": site, "reason": reason})

    # -- locking ---------------------------------------------------------------

    @contextmanager
    def _lock(self, site: str, timeout: float = 5.0):
        """The cross-process mutex for prune/quarantine.  Yields True when
        held; False when acquisition failed (the caller must skip the
        mutation — skipping maintenance is always safe).  ``flock`` locks
        die with their process, so a crashed holder can never wedge the
        store; the O_EXCL fallback (no ``fcntl``) breaks locks older than
        60 seconds."""
        if faults.stale_lock(f"store.lock[{site}]"):
            self.stats["lock_skips"] += 1
            self._degrade(site, "stale lock: acquisition timed out "
                                "(injected); maintenance skipped")
            yield False
            return
        lock_path = self.base / ".lock"
        try:
            self.base.mkdir(parents=True, exist_ok=True)
        except OSError:
            yield False
            return
        if fcntl is not None:
            handle = None
            try:
                handle = open(lock_path, "a+")
                deadline = time.monotonic() + timeout
                while True:
                    try:
                        fcntl.flock(handle.fileno(),
                                    fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        if time.monotonic() >= deadline:
                            self.stats["lock_skips"] += 1
                            self._degrade(site, "store lock acquisition "
                                                "timed out; maintenance "
                                                "skipped")
                            yield False
                            return
                        time.sleep(0.02)
                try:
                    yield True
                finally:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                yield False
            finally:
                if handle is not None:
                    handle.close()
            return
        # No fcntl: O_CREAT|O_EXCL lock file with stale-break.
        deadline = time.monotonic() + timeout
        while True:  # pragma: no cover - exercised only off-posix
            try:
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                break
            except FileExistsError:
                try:
                    if time.time() - lock_path.stat().st_mtime > 60.0:
                        lock_path.unlink()
                        continue
                except OSError:
                    pass
                if time.monotonic() >= deadline:
                    self.stats["lock_skips"] += 1
                    self._degrade(site, "store lock acquisition timed out; "
                                        "maintenance skipped")
                    yield False
                    return
                time.sleep(0.02)
            except OSError:
                yield False
                return
        try:
            yield True
        finally:
            try:
                lock_path.unlink()
            except OSError:
                pass

    # -- publish ---------------------------------------------------------------

    def put_bytes(self, namespace: str, key: str, payload: bytes) -> bool:
        """Publish one artifact atomically.  Returns False (and records the
        degradation) when any I/O boundary fails — the entry is then absent
        or torn-but-invisible, never half-served."""
        site = f"store.put[{namespace}/{key}]"
        payload_path, meta_path = self._entry_paths(namespace, key)
        tmp_payload = tmp_meta = None
        try:
            payload_path.parent.mkdir(parents=True, exist_ok=True)
            digest = hashlib.sha256(payload).hexdigest()
            written = faults.torn(f"{site}.payload", payload)
            faults.os_error(f"{site}.payload")
            fd, tmp_name = tempfile.mkstemp(
                dir=str(payload_path.parent),
                prefix=f".{payload_path.name}.", suffix=".tmp")
            tmp_payload = Path(tmp_name)
            with os.fdopen(fd, "wb") as handle:
                handle.write(written)
                handle.flush()
                os.fsync(handle.fileno())
            if faults.crash(f"{site}.rename"):
                # Simulated crash between write and rename: the tmp file
                # stays behind (prune collects it), nothing was published.
                tmp_payload = None
                self.stats["write_failures"] += 1
                self._degrade(site, "crash between write and rename "
                                    "(simulated); artifact not published")
                return False
            os.replace(tmp_payload, payload_path)
            tmp_payload = None
            if faults.crash(f"{site}.meta"):
                # Crash between payload and meta publish: a torn entry no
                # reader will ever trust (no sidecar), pruned later.
                self.stats["write_failures"] += 1
                self._degrade(site, "crash between payload and meta "
                                    "publish (simulated); entry left torn")
                return False
            meta = {
                "version": SCHEMA_VERSION,
                "namespace": namespace,
                "key": key,
                "sha256": digest,
                "size": len(payload),
            }
            faults.os_error(f"{site}.meta")
            fd, tmp_name = tempfile.mkstemp(
                dir=str(meta_path.parent),
                prefix=f".{meta_path.name}.", suffix=".tmp")
            tmp_meta = Path(tmp_name)
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(meta, sort_keys=True))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_meta, meta_path)
            tmp_meta = None
        except OSError as error:
            self.stats["write_failures"] += 1
            self._degrade(site, f"write failed: {error}")
            return False
        finally:
            for leftover in (tmp_payload, tmp_meta):
                if leftover is not None:
                    try:
                        leftover.unlink()
                    except OSError:
                        pass
        self.stats["writes"] += 1
        self._maybe_prune(len(payload))
        return True

    def put_file(self, namespace: str, key: str,
                 source: Union[str, Path]) -> bool:
        try:
            payload = Path(source).read_bytes()
        except OSError as error:
            self.stats["write_failures"] += 1
            self._degrade(f"store.put[{namespace}/{key}]",
                          f"source unreadable: {error}")
            return False
        return self.put_bytes(namespace, key, payload)

    # -- read ------------------------------------------------------------------

    def _verified_payload(self, namespace: str, key: str) -> Optional[bytes]:
        site = f"store.get[{namespace}/{key}]"
        payload_path, meta_path = self._entry_paths(namespace, key)
        try:
            raw_meta = meta_path.read_bytes()
        except OSError:
            self.stats["misses"] += 1
            return None
        try:
            meta = json.loads(raw_meta)
        except ValueError:
            self._quarantine(namespace, key, "meta-unparsable")
            self.stats["misses"] += 1
            return None
        if not isinstance(meta, dict) or meta.get("version") != SCHEMA_VERSION:
            self._quarantine(namespace, key, "schema-version")
            self.stats["misses"] += 1
            return None
        if self.require_private and not self._private(payload_path):
            self._degrade(site, "payload not private to this uid; refused")
            self.stats["misses"] += 1
            return None
        try:
            payload = payload_path.read_bytes()
        except OSError:
            self._quarantine(namespace, key, "payload-missing")
            self.stats["misses"] += 1
            return None
        payload = faults.bitflip(f"{site}.payload", payload)
        if (len(payload) != meta.get("size")
                or hashlib.sha256(payload).hexdigest() != meta.get("sha256")):
            self.stats["corrupt"] += 1
            self._quarantine(namespace, key, "digest-mismatch")
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        try:  # LRU approximation for pruning; best-effort only.
            os.utime(payload_path)
        except OSError:
            pass
        return payload

    def get_bytes(self, namespace: str, key: str) -> Optional[bytes]:
        """The verified payload, or None (entry absent, torn, corrupt, or
        schema-mismatched — corrupt entries are quarantined first)."""
        return self._verified_payload(namespace, key)

    def get_path(self, namespace: str, key: str) -> Optional[Path]:
        """The on-disk payload path after full verification — what the
        native tier hands to ``ctypes.CDLL``.  None on any miss."""
        if self._verified_payload(namespace, key) is None:
            return None
        payload_path, _ = self._entry_paths(namespace, key)
        return payload_path

    @staticmethod
    def _private(path: Path) -> bool:
        if not hasattr(os, "getuid"):  # pragma: no cover - windows
            return True
        try:
            st = path.stat()
        except OSError:
            return False
        return st.st_uid == os.getuid() and not (st.st_mode & 0o022)

    # -- quarantine ------------------------------------------------------------

    def _quarantine(self, namespace: str, key: str, reason: str) -> None:
        """Move a bad entry aside (under the lock) so the rebuild cannot
        race a reader still holding the old paths.  Failure to quarantine
        is itself only a degradation: the entry stays, keeps missing, and
        the next successful ``put`` atomically replaces it."""
        site = f"store.quarantine[{namespace}/{key}]"
        payload_path, meta_path = self._entry_paths(namespace, key)
        self._degrade(site, reason)
        with self._lock(site) as held:
            if not held:
                return
            try:
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            except OSError:
                return
            stamp = f"{_sanitize(namespace)}__{_sanitize(key)}.{os.getpid()}"
            moved = False
            for source, suffix in ((payload_path, "bin"),
                                   (meta_path, "json")):
                target = self.quarantine_dir / f"{stamp}.{reason}.{suffix}"
                try:
                    os.replace(source, target)
                    moved = True
                except OSError:
                    pass
            if moved:
                self.stats["quarantined"] += 1

    # -- pruning ---------------------------------------------------------------

    def _scan(self) -> List[Tuple[float, int, Path]]:
        """(mtime, size, payload_path) for every payload, tolerating
        entries vanishing between listing and stat (concurrent prune)."""
        entries: List[Tuple[float, int, Path]] = []
        try:
            namespaces = [child for child in self.base.iterdir()
                          if child.is_dir() and child != self.quarantine_dir]
        except OSError:
            return entries
        for directory in namespaces:
            try:
                names = list(directory.iterdir())
            except OSError:
                continue
            for path in names:
                if path.suffix != ".bin":
                    continue
                try:
                    st = path.stat()
                except OSError:
                    continue  # vanished under us: fine, someone pruned it
                entries.append((st.st_mtime, st.st_size, path))
        return entries

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._scan())

    def entry_count(self) -> int:
        return len(self._scan())

    def _maybe_prune(self, written: int) -> None:
        if self.limit_bytes <= 0:
            return
        # A full-tree scan per publish would make writes O(entries): keep
        # a running estimate (seeded from one scan, bumped per publish)
        # and only rescan-and-prune when it crosses the bound.
        if self._approx_bytes is None:
            self._approx_bytes = self.total_bytes()
        else:
            self._approx_bytes += written
        if self._approx_bytes > self.limit_bytes:
            self.prune()
            self._approx_bytes = None

    def prune(self) -> int:
        """Evict oldest entries until under the size bound and sweep
        orphans (tmp files and meta-less payloads older than the grace
        period).  Runs entirely under the cross-process lock and tolerates
        every entry vanishing concurrently; returns evicted entry count."""
        evicted = 0
        with self._lock("store.prune") as held:
            if not held:
                return 0
            now = time.time()
            # Sweep publish leftovers: tmp files and torn entries.
            try:
                directories = [child for child in self.base.iterdir()
                               if child.is_dir()
                               and child != self.quarantine_dir]
            except OSError:
                return 0
            for directory in directories:
                try:
                    names = list(directory.iterdir())
                except OSError:
                    continue
                for path in names:
                    try:
                        stale = now - path.stat().st_mtime > self.prune_grace
                    except OSError:
                        continue
                    if not stale:
                        continue
                    if path.suffix == ".tmp":
                        self._unlink_quiet(path)
                    elif (path.suffix == ".bin"
                          and not path.with_suffix(".json").exists()):
                        self._unlink_quiet(path)  # torn publish: no sidecar
                    elif (path.suffix == ".json"
                          and not path.with_suffix(".bin").exists()):
                        self._unlink_quiet(path)
            if self.limit_bytes <= 0:
                return 0
            entries = sorted(self._scan())
            total = sum(size for _, size, _ in entries)
            for mtime, size, payload_path in entries:
                if total <= self.limit_bytes:
                    break
                if now - mtime <= self.prune_grace:
                    continue  # a concurrent writer may be mid-publish
                self._unlink_quiet(payload_path.with_suffix(".json"))
                self._unlink_quiet(payload_path)
                total -= size
                evicted += 1
            self.stats["evicted"] += evicted
        return evicted

    @staticmethod
    def _unlink_quiet(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- reporting -------------------------------------------------------------

    def stats_dict(self) -> Dict[str, int]:
        report = dict(self.stats)
        report["degradations"] = len(self.degradations)
        return report


# ---------------------------------------------------------------------------
# The process default store (REPRO_STORE_DIR)
# ---------------------------------------------------------------------------

_UNSET = object()
_OVERRIDE: object = _UNSET
_ENV_MEMO: Dict[Tuple[str, Optional[str]], ArtifactStore] = {}


def default_store() -> Optional[ArtifactStore]:
    """The configured store for native ``.so`` kernels: an explicit
    :func:`set_default_store` override wins, then the ``REPRO_STORE_DIR``
    environment variable (one store instance per distinct root+limit),
    else None — the native tier then uses its private per-uid store."""
    if _OVERRIDE is not _UNSET:
        return _OVERRIDE  # type: ignore[return-value]
    root = os.environ.get("REPRO_STORE_DIR")
    if not root:
        return None
    memo_key = (root, os.environ.get("REPRO_STORE_LIMIT"))
    store = _ENV_MEMO.get(memo_key)
    if store is None:
        store = ArtifactStore(root)
        _ENV_MEMO[memo_key] = store
    return store


def set_default_store(store: Optional[ArtifactStore]):
    """Pin the process default store (tests and the ``faults`` conformance
    way).  Returns the previous setting — pass it back to restore."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = store
    return previous


def reset_default_store(token: object = _UNSET) -> None:
    """Restore a :func:`set_default_store` token (default: back to the
    environment) and drop the per-env memo."""
    global _OVERRIDE
    _OVERRIDE = token
    _ENV_MEMO.clear()
