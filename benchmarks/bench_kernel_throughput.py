"""Kernel throughput across the engine tiers, native C included.

The workload is the same AddMult fuzz traffic ``bench_lane_throughput.py``
measures (reproducible random transaction streams checked against the
golden model).  This benchmark pins the *engine tier* instead of the lane
count: one stream under the scheduled interpreter (``mode="auto"``), the
generated Python kernel (``mode="compiled"``) and the native C kernel
(``mode="native"``, skipped with an explicit log line when the host has no
C compiler).  Lane batches have their own lanes x engines matrix in
``bench_lane_throughput.py``.

**Timing definition.**  The timed region is engine-level batch execution of
a pre-built stimulus: ``run_batch`` for dict-stimulus tiers,
``run_columns`` for the native tier.
Stimulus construction, output capture and the golden-model check run
*untimed* (but always run — they are the correctness backstop).  This
measures kernel throughput, which is what the tiers differ in; the shared
harness marshalling around the kernels is identical across tiers and would
otherwise flatten every ratio toward 1x (see the README benchmark notes).

Run as a script (the CI ``kernel-throughput-smoke`` and
``native-throughput-smoke`` jobs) to print the figure and persist
``BENCH_kernel_throughput.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py \
        --transactions 40

The script exits non-zero unless the compiled scalar kernel beats the
scheduled interpreter, and — whenever the native row was measured — unless
the native kernel beats the compiled one.  ``--require-native`` (the
``native-throughput-smoke`` job) additionally demands that the native row
exists: a missing C compiler is still a clean, explicitly-logged skip, but
an unexpected fallback with a compiler present becomes a failure.  Under
pytest the same machinery runs at smoke size and asserts all tiers stay
bit-identical (wall-clock asserts are left to the dedicated CI jobs).
"""

import argparse
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import write_bench  # noqa: E402
from repro.core.session import CompilationSession  # noqa: E402
from repro.designs import addmult_program  # noqa: E402
from repro.designs.golden import addmult as addmult_golden  # noqa: E402
from repro.harness import CapturedRun, harness_for  # noqa: E402
from repro.harness.fuzz import random_transactions  # noqa: E402
from repro.sim import compiler_available, is_x  # noqa: E402

DESIGN = "AddMult"
#: (engine label, simulator mode) — the measured tiers.
POINTS = (
    ("scheduled", "auto"),
    ("compiled", "compiled"),
    ("native", "native"),
)


def _golden(transaction):
    return {"out": addmult_golden(transaction["a"], transaction["b"],
                                  transaction["c"])}


def _harness(mode: str):
    program = addmult_program()
    session = CompilationSession.for_program(program)
    return harness_for(program, DESIGN, session=session, mode=mode)


def _check_golden(results) -> None:
    for result in results:
        for name, want in _golden(result.inputs).items():
            got = result.output(name)
            assert not is_x(got) and got == want, (
                f"transaction {result.index}: output {name} expected "
                f"{want} but captured {got!r}")


def _measure_point(harness, mode: str, transactions: int, repeats: int):
    """Best-of-``repeats`` engine-level throughput (tx/s) for one tier,
    after one warm-up round that amortizes compile + schedule + kernel
    codegen exactly as real use does.  Returns ``None`` when the requested
    tier is not actually running (native fallback); the golden check runs
    untimed on the final round's output."""
    simulator = harness._fresh_simulator()
    stream = random_transactions(harness, transactions, seed=7)
    if mode == "native":
        if not simulator.native_active():
            return None
        total, columns, starts = harness._schedule_columns(stream)
        run = lambda: simulator.run_columns(total, columns)  # noqa: E731
        capture = lambda out: CapturedRun(  # noqa: E731
            stream, starts,
            harness._capture_columns(out, total, starts, 1, 0))
    else:
        stimulus, starts = harness._schedule(stream)
        run = lambda: simulator.run_batch(stimulus)  # noqa: E731
        capture = lambda trace: CapturedRun(  # noqa: E731
            stream, starts, harness._capture(trace, starts))
    best = None
    for _ in range(repeats + 1):
        simulator.reset()
        begin = time.perf_counter()
        out = run()
        elapsed = time.perf_counter() - begin
        rate = transactions / elapsed
        best = rate if best is None else max(best, rate)
    _check_golden(capture(out))
    return best


def measure(transactions: int = 40, repeats: int = 3) -> dict:
    """The throughput figure: one row per measured tier plus a ``skipped``
    list of ``(engine, config, reason)`` for tiers that could not run on
    this host (no silent gaps in the matrix)."""
    rows = []
    skipped = []
    for engine, mode in POINTS:
        if mode == "native" and not compiler_available():
            skipped.append((engine, "scalar", "no C compiler on host"))
            continue
        harness = _harness(mode)
        rate = _measure_point(harness, mode, transactions, repeats)
        if rate is None:
            reason = (harness._simulator.native_fallback_reason
                      or "native tier unavailable")
            skipped.append((engine, "scalar", reason))
            continue
        rows.append({"engine": engine, "config": "scalar",
                     "tx_per_sec": rate, "lanes": 1})
    return {
        "design": DESIGN,
        "workload": f"{DESIGN} fuzz stream, engine-level batch execution",
        "transactions_per_stream": transactions,
        "rows": rows,
        "skipped": skipped,
    }


def _row(figure: dict, engine: str, config: str):
    return next((row for row in figure["rows"]
                 if row["engine"] == engine and row["config"] == config),
                None)


def _compiled_matches_scheduled(transactions: int = 10) -> None:
    """Correctness backstop for the benchmark workload: the compiled
    harness must capture exactly what the scheduled harness captures."""
    scheduled = _harness("auto")
    compiled = _harness("compiled")
    stream = random_transactions(scheduled, transactions, seed=5)
    want = scheduled.run(stream)
    got = compiled.run(stream)
    assert compiled._simulator.uses_kernel(), \
        compiled._simulator.kernel_fallback_reason
    for a, b in zip(want, got):
        for name, value in a.outputs.items():
            other = b.outputs[name]
            assert is_x(value) == is_x(other)
            if not is_x(value):
                assert value == other


def test_compiled_harness_matches_scheduled():
    _compiled_matches_scheduled()


def test_native_harness_matches_scheduled():
    if not compiler_available():
        import pytest
        pytest.skip("no C compiler on host")
    scheduled = _harness("auto")
    native = _harness("native")
    stream = random_transactions(scheduled, 10, seed=5)
    want = scheduled.run(stream)
    got = native.run(stream)
    assert native._simulator.uses_native(), \
        native._simulator.native_fallback_reason
    for a, b in zip(want, got):
        for name, value in a.outputs.items():
            other = b.outputs[name]
            assert is_x(value) == is_x(other)
            if not is_x(value):
                assert value == other


def test_kernel_throughput_figure_is_well_formed():
    figure = measure(transactions=6, repeats=1)
    expected = len(POINTS) if compiler_available() else len(POINTS) - 1
    assert len(figure["rows"]) == expected, figure["skipped"]
    assert all(row["tx_per_sec"] > 0 for row in figure["rows"])
    if compiler_available():
        assert _row(figure, "native", "scalar") is not None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transactions", type=int, default=40,
                        help="transactions per stream (default 40)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--require-native", action="store_true",
                        help="fail unless the native row was measured and "
                             "beats the compiled scalar kernel; a missing "
                             "C compiler remains an explicit, clean skip")
    args = parser.parse_args(argv)

    figure = measure(args.transactions, args.repeats)
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    path = write_bench("kernel_throughput", figure["workload"],
                       figure["rows"], baseline="scheduled scalar",
                       timestamp=timestamp)
    print(f"kernel throughput on {figure['design']} "
          f"({figure['transactions_per_stream']} transactions/stream, "
          f"engine-level timed region):")
    for row in figure["rows"]:
        print(f"  {row['engine']:>10s} {row['config']:<7s}"
              f"(lanes={row['lanes']:3d}): {row['tx_per_sec']:>12.1f} tx/s")
    for engine, config, reason in figure["skipped"]:
        print(f"  SKIP: {engine} {config}: {reason}")
    print(f"figure written to {path}")

    scheduled_scalar = _row(figure, "scheduled", "scalar")["tx_per_sec"]
    compiled_scalar = _row(figure, "compiled", "scalar")["tx_per_sec"]
    scalar_speedup = compiled_scalar / scheduled_scalar
    print(f"  compiled vs scheduled, scalar:   {scalar_speedup:.2f}x")
    native_row = _row(figure, "native", "scalar")
    if native_row is not None:
        native_speedup = native_row["tx_per_sec"] / compiled_scalar
        print(f"  native vs compiled, scalar:      {native_speedup:.2f}x")

    if scalar_speedup <= 1.0:
        print("FAIL: the compiled kernel does not beat the scheduled "
              "interpreter", file=sys.stderr)
        return 1
    if native_row is None:
        if not compiler_available():
            print("SKIP: no C compiler on host; native row not measured")
            if args.require_native:
                print("SKIP: --require-native waived (no C compiler); "
                      "exiting clean")
            return 0
        if args.require_native:
            print("FAIL: a C compiler is present but the native tier fell "
                  "back; see the SKIP reason above", file=sys.stderr)
            return 1
        return 0
    if native_speedup <= 1.0:
        print("FAIL: the native kernel does not beat the compiled scalar "
              "kernel", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
