"""Persistent-store startup: cold vs warm-disk vs warm-memory sessions.

The artifact store (:mod:`repro.core.store`) holds the native tier's
``.so`` kernels so a *fresh process* does not pay the C-kernel build cost
when an identical design was built before — by anyone, in any process,
against the same ``REPRO_STORE_DIR``.  This benchmark measures exactly that
seam, per design, for the full session startup path (typecheck → lower →
Calyx → Verilog → native simulator prepare):

* ``cold`` — empty store, empty in-memory caches: everything computed,
  the C kernel compiled by ``cc`` and published to the store;
* ``warm-disk`` — in-memory caches dropped (a new process), store kept:
  the compile stages run again, but the ``.so`` comes back from the
  store, digest-verified, with no ``cc``;
* ``warm-memory`` — same process, same session caches: the in-memory hit
  path the store sits below.

``main()`` persists ``BENCH_store.json`` in the common benchmark schema
(per-config ``cold`` baseline) and gates on warm-disk startup beating the
cold compile on the chain16 workload.  Without a C compiler nothing is
stored, so the gate is skipped (and says so).
"""

import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.session import CompilationSession
from repro.core.store import (
    ArtifactStore,
    reset_default_store,
    set_default_store,
)
from repro.evaluation.compile_time import chain_program
from repro.sim.codegen import clear_kernel_cache
from repro.sim.native import clear_native_cache, compiler_available
from repro.sim.simulator import Simulator

#: depth -> config label; chain16 is the acceptance workload.
_DESIGNS = ((8, "chain8"), (16, "chain16"), (24, "chain24"))
_SALT = 7


def _drop_memory_caches() -> None:
    clear_kernel_cache()
    clear_native_cache()


def _session_startup(program, entrypoint) -> float:
    """One full session startup: compile to Verilog and prepare the
    native-tier simulator; returns wall seconds."""
    start = time.perf_counter()
    session = CompilationSession(program)
    session.verilog(entrypoint)
    Simulator(session.calyx(entrypoint), entrypoint, mode="native").prepare()
    return time.perf_counter() - start


def measure(repeats: int = 3) -> dict:
    """Best-of-``repeats`` cold / warm-disk / warm-memory startup times per
    design.  Every repeat uses a fresh store root for the cold leg, then
    reuses it for the warm-disk leg — exactly the fresh-process sequence."""
    rows = []
    seconds = {}
    for depth, label in _DESIGNS:
        best = {"cold": float("inf"), "warm-disk": float("inf"),
                "warm-memory": float("inf")}
        for _ in range(repeats):
            program, entrypoint = chain_program(depth, salt=_SALT)
            root = tempfile.mkdtemp(prefix="repro-bench-store-")
            token = set_default_store(ArtifactStore(root))
            try:
                _drop_memory_caches()
                best["cold"] = min(best["cold"],
                                   _session_startup(program, entrypoint))
                _drop_memory_caches()  # a new process: memory gone, disk kept
                best["warm-disk"] = min(best["warm-disk"],
                                        _session_startup(program, entrypoint))
                best["warm-memory"] = min(
                    best["warm-memory"],
                    _session_startup(program, entrypoint))
            finally:
                reset_default_store(token)
                _drop_memory_caches()
                shutil.rmtree(root, ignore_errors=True)
        seconds[label] = dict(best)
        for engine in ("cold", "warm-disk", "warm-memory"):
            rows.append({"engine": engine, "config": label,
                         "tx_per_sec": 1.0 / max(best[engine], 1e-9),
                         "seconds": round(best[engine], 6),
                         "baseline": "cold"})
    return {"workload": "session startup (verilog + native prepare), "
                        "sessions/sec", "rows": rows, "seconds": seconds}


# -- pytest gates (CI smoke runs these without timing assertions) -------------

@pytest.fixture(scope="module")
def figure():
    return measure(repeats=2)


def test_every_design_has_all_three_rows(figure):
    for _depth, label in _DESIGNS:
        engines = {row["engine"] for row in figure["rows"]
                   if row["config"] == label}
        assert engines == {"cold", "warm-disk", "warm-memory"}


@pytest.mark.skipif(not compiler_available(),
                    reason="no C compiler on host: nothing is stored")
def test_warm_disk_beats_cold_on_chain16(figure):
    timing = figure["seconds"]["chain16"]
    assert timing["warm-disk"] < timing["cold"], (
        f"warm-disk {timing['warm-disk']:.3f}s did not beat "
        f"cold {timing['cold']:.3f}s")


def main() -> int:
    from datetime import datetime, timezone

    from common import write_bench

    figure = measure()
    path = write_bench("store", figure["workload"], figure["rows"],
                       baseline="cold",
                       timestamp=datetime.now(timezone.utc).isoformat(
                           timespec="seconds"))
    print(f"figure written to {path}")
    print(f"{'design':10s} {'cold':>10} {'warm-disk':>10} "
          f"{'warm-mem':>10} {'disk speedup':>13}")
    gated = compiler_available()
    failed = False
    for _depth, label in _DESIGNS:
        timing = figure["seconds"][label]
        speedup = timing["cold"] / max(timing["warm-disk"], 1e-9)
        print(f"{label:10s} {timing['cold'] * 1000:8.1f}ms "
              f"{timing['warm-disk'] * 1000:8.1f}ms "
              f"{timing['warm-memory'] * 1000:8.1f}ms {speedup:11.1f}x")
        if (gated and label == "chain16"
                and timing["warm-disk"] >= timing["cold"]):
            print("FAIL: warm-disk startup did not beat cold compile "
                  "on chain16")
            failed = True
    if not gated:
        print("SKIP: no C compiler on host, so nothing is stored; the "
              "chain16 warm-disk gate does not apply")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
