"""Lane-batch throughput across the engine tiers at 1, 8 and 64 lanes.

The fuzz workload (independently seeded random transaction streams against
the ``AddMult`` design) is the traffic pattern every downstream consumer of
the simulator generates: the conformance matrix, the Appendix B fuzz
harness and the evaluation drivers all pay one netlist pass per stimulus
stream.  This benchmark crosses the *lane count* with the *engine tier*:

* **scheduled** — the levelized interpreter;
* **compiled** — the generated Python kernel;
* **native** — the C kernel's scalar columnar entry (``run_columns``) and
  its lane entry (``run_lane_columns``), where N streams cross the
  Python/C boundary once as lane-major-within-port columnar buffers and
  run as each lane's netlist pass in turn, one C call per batch.

Only the native tier batches lanes: on the Python tiers ``run_lanes`` is
one scalar run per stream, so their lane rows measure that path (each row
records its ``path``).

**Timing definition.**  The timed region is engine-level batch execution
of pre-built stimulus: ``run_batch``/``run_lanes`` for dict-stimulus
tiers, ``run_columns``/``run_lane_columns`` for the native tier (the
harness's one lane-major schedule is built untimed).
Output capture and the golden-model check run *untimed* but always run —
they are the correctness backstop.  See the README benchmark notes for
why harness-level timing would flatten every ratio toward 1x.

Run as a script (the CI ``lane-throughput-smoke`` job) to print the
figure, persist ``BENCH_lane_throughput.json`` at the repo root (native
rows first — they are the headline; speedups are per-lane-count against
the compiled kernel) and optionally dump the raw figure::

    PYTHONPATH=src python benchmarks/bench_lane_throughput.py \
        --transactions 40 --out lane-throughput.json

The script exits non-zero if the native 64-lane row fails to beat the
native scalar row (the lane-batching regression gate; native is the one
tier that batches lanes).  ``--require-native-lanes`` (the CI job)
additionally demands the native lane rows exist and that native at 64
lanes beats the compiled 64-lane row (one compiled-kernel run per stream)
by at least 3x: a missing C compiler stays a clean, explicitly-logged skip,
but a fallback with a compiler present — or a collapsed margin — becomes a
failure.
Under pytest the same machinery runs at smoke size and only checks
bit-identical traces (wall-clock asserts are left to the dedicated job,
which uploads the JSON artifact).
"""

import argparse
import json
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
from repro.harness import (  # noqa: E402
    CapturedRun,
    harness_for,
    random_transactions,
)
from repro.sim import compiler_available, is_x  # noqa: E402
from repro.sim.engine import columns_to_rows, rows_to_columns  # noqa: E402

LANE_POINTS = (1, 8, 64)
#: Native first — the headline rows of the committed figure.
ENGINES = (("native", "native"), ("compiled", "compiled"),
           ("scheduled", "auto"))
DESIGN = "AddMult"


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


def _measure_point(harness, engine: str, lanes: int, transactions: int,
                   repeats: int):
    """Best-of-``repeats`` engine-level throughput (tx/s) for one matrix
    point, after one warm-up round that amortizes compile + schedule +
    kernel codegen exactly as real use does.  Returns ``None`` when the
    requested tier is not actually running (native fallback); the golden
    check runs untimed on the final round's output."""
    simulator = harness._fresh_simulator()
    streams = [random_transactions(harness, transactions, seed=7 + lane)
               for lane in range(lanes)]
    # The harness's one lane-major schedule, built once and untimed.
    total, columns, lengths, starts = harness._schedule_streams(streams)
    if engine == "native":
        if not simulator.native_active():
            return None
        if lanes == 1:
            run = lambda: simulator.run_columns(total, columns)  # noqa: E731
        else:
            run = lambda: simulator.run_lane_columns(  # noqa: E731
                total, lanes, columns, lengths)
        as_columns = lambda out: out  # noqa: E731
    else:
        outputs = [port.name for port in harness.spec.outputs]
        batches = [columns_to_rows(columns, length, lanes, lane)
                   for lane, length in enumerate(lengths)]
        if lanes == 1:
            run = lambda: [simulator.run_batch(batches[0])]  # noqa: E731
        else:
            run = lambda: simulator.run_lanes(batches)  # noqa: E731
        as_columns = lambda traces: rows_to_columns(  # noqa: E731
            traces, outputs, total)
    best = None
    for _ in range(repeats + 1):
        simulator.reset()
        begin = time.perf_counter()
        out = run()
        elapsed = time.perf_counter() - begin
        rate = transactions * lanes / elapsed
        best = rate if best is None else max(best, rate)
    out = as_columns(out)
    for lane, (stream, length, lane_starts) in enumerate(
            zip(streams, lengths, starts)):
        _check_golden(CapturedRun(stream, lane_starts,
                                  harness._capture_columns(
                                      out, length, lane_starts, lanes,
                                      lane)))
    return best


def _config(lanes: int) -> str:
    return "scalar" if lanes == 1 else f"lanes={lanes}"


def _path(engine: str, lanes: int) -> str:
    """How ``engine`` executes a batch of ``lanes`` streams."""
    if lanes == 1:
        return "scalar"
    return "lane entry" if engine == "native" else "per-stream runs"


def measure(transactions: int = 40, repeats: int = 3) -> dict:
    """The throughput figure: one row per measured matrix point plus a
    ``skipped`` list of ``(engine, config, reason)`` for points that could
    not run on this host (no silent gaps in the matrix)."""
    rows = []
    skipped = []
    for engine, mode in ENGINES:
        if engine == "native" and not compiler_available():
            skipped.extend((engine, _config(lanes), "no C compiler on host")
                           for lanes in LANE_POINTS)
            continue
        harness = _harness(mode)
        for lanes in LANE_POINTS:
            rate = _measure_point(harness, engine, lanes, transactions,
                                  repeats)
            if rate is None:
                reason = (harness._simulator.native_fallback_reason
                          or "native tier unavailable")
                skipped.append((engine, _config(lanes), reason))
                continue
            rows.append({"engine": engine, "config": _config(lanes),
                         "tx_per_sec": rate, "lanes": lanes,
                         "path": _path(engine, lanes)})
    return {
        "design": DESIGN,
        "workload": f"{DESIGN} fuzz streams, engine-level lane execution",
        "transactions_per_stream": transactions,
        "rows": rows,
        "skipped": skipped,
    }


def _row(figure: dict, engine: str, lanes: int):
    return next((row for row in figure["rows"]
                 if row["engine"] == engine and row["lanes"] == lanes),
                None)


def _lanes_match_scalar(mode: str, transactions: int = 12,
                        lanes: int = 8) -> None:
    """The correctness backstop for the benchmark workload: every lane's
    results must be bit-identical (values and X planes) to its scalar
    run."""
    harness = _harness(mode)
    streams = [random_transactions(harness, transactions, seed=seed)
               for seed in range(lanes)]
    batch = harness.run_lanes(streams)
    for stream, results in zip(streams, batch):
        scalar = harness.run(stream)
        assert len(results) == len(scalar)
        for lane_result, scalar_result in zip(results, scalar):
            for name, want in scalar_result.outputs.items():
                got = lane_result.outputs[name]
                assert is_x(got) == is_x(want)
                if not is_x(want):
                    assert got == want


def test_compiled_lanes_match_scalar():
    _lanes_match_scalar("compiled")


def test_native_lanes_match_scalar():
    if not compiler_available():
        import pytest
        pytest.skip("no C compiler on host")
    _lanes_match_scalar("native")


def test_lane_throughput_figure_is_well_formed():
    figure = measure(transactions=6, repeats=1)
    per_engine = len(LANE_POINTS)
    expected = per_engine * (3 if compiler_available() else 2)
    assert len(figure["rows"]) == expected, figure["skipped"]
    assert all(row["tx_per_sec"] > 0 for row in figure["rows"])
    if compiler_available():
        assert _row(figure, "native", 64) is not None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transactions", type=int, default=40,
                        help="transactions per stream (default 40)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the raw JSON figure here")
    parser.add_argument("--require-native-lanes", action="store_true",
                        help="fail unless the native lane rows were "
                             "measured and native at 64 lanes beats the "
                             "compiled 64-lane row by >= 3x; a missing C "
                             "compiler remains an explicit, clean skip")
    args = parser.parse_args(argv)

    figure = measure(args.transactions, args.repeats)
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    # Per-config baseline: every row's speedup is against the compiled
    # kernel at the same lane count, so the native lanes=64 row carries
    # the headline native-vs-compiled ratio.
    path = write_bench("lane_throughput", figure["workload"],
                       figure["rows"], baseline="compiled",
                       timestamp=timestamp)
    print(f"lane throughput on {figure['design']} "
          f"({figure['transactions_per_stream']} transactions/stream, "
          f"engine-level timed region):")
    for row in figure["rows"]:
        print(f"  {row['engine']:>10s} (lanes={row['lanes']:3d}): "
              f"{row['tx_per_sec']:>12.1f} tx/s")
    for engine, config, reason in figure["skipped"]:
        print(f"  SKIP: {engine} {config}: {reason}")
    print(f"figure written to {path}")

    native_64 = _row(figure, "native", 64)
    compiled_64 = _row(figure, "compiled", 64)
    native_vs_compiled_64 = (
        round(native_64["tx_per_sec"] / compiled_64["tx_per_sec"], 2)
        if native_64 is not None else None)
    if native_vs_compiled_64 is not None:
        print(f"  native vs compiled, 64 lanes: {native_vs_compiled_64}x")
    if args.out:
        raw = dict(figure)
        raw["skipped"] = [list(entry) for entry in figure["skipped"]]
        raw["native_vs_compiled_64"] = native_vs_compiled_64
        Path(args.out).write_text(json.dumps(raw, indent=2) + "\n")
        print(f"figure written to {args.out}")

    status = 0
    # Native is the one tier that batches lanes; the Python tiers run one
    # scalar pass per stream, so their lane rows have no bar of their own.
    native_1 = _row(figure, "native", 1)
    if (native_1 is not None and native_64 is not None
            and native_64["tx_per_sec"] <= native_1["tx_per_sec"]):
        print("FAIL: native 64 lanes are not faster than 1",
              file=sys.stderr)
        status = 1
    if native_64 is None:
        if not compiler_available():
            print("SKIP: no C compiler on host; native lane rows not "
                  "measured")
            if args.require_native_lanes:
                print("SKIP: --require-native-lanes waived (no C "
                      "compiler); exiting clean")
            return status
        if args.require_native_lanes:
            print("FAIL: a C compiler is present but the native tier fell "
                  "back; see the SKIP reason above", file=sys.stderr)
            return 1
        return status
    # The lane entry's measured margin is an order of magnitude past 3x;
    # the bar leaves room for shared-runner noise without ever letting a
    # Python-loop regression back in.
    if args.require_native_lanes and native_vs_compiled_64 < 3.0:
        print(f"FAIL: native lanes at 64 are only "
              f"{native_vs_compiled_64}x the compiled 64-lane row "
              f"(gate: >= 3x)", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
