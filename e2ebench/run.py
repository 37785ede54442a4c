"""End-to-end, per-layer benchmark of the Filament reproduction.

Usage::

    python3 e2ebench/run.py --workload fuzz-addmult --seed 1 --seconds 30 \\
        --trace 0

Workloads (see ``workloads.py`` and ``README.md`` in this directory):
``fuzz-addmult``, ``fuzz-lanes``, ``edit-loop``, ``conformance-cold``.

Every measurement runs in a fresh process (``worker.py``) with its own
empty ``REPRO_STORE_DIR``, ``REPRO_NATIVE_CACHE_DIR`` and ``TMPDIR`` under
``.e2ebench-work/`` in the checkout, removed afterwards, so set-up is cold
in every process and memory is per workload.  ``--trace 0`` splits the
measured time over ``PROCESSES`` such processes, one after another, with
``SETUP_ONLY`` processes between them that only set up: set-up time is the
median over all of them, peak memory the median over the measuring ones,
and the timing figures come from every timed operation of the measuring
ones.  Every time is scaled to the reference host speed by the probes the
worker runs around it (see ``worker.probe``), because on a shared machine
other tenants slow whole minutes of a run by up to 70%.  ``--trace 1``
runs one traced process and prints the per-layer metrics, the layer
breakdown and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report.  Exit status: 0 when the run completed with
every output correct, 1 when some output was wrong (the JSON still
prints), 2 when the source tree is missing, 3 when the host cannot run the
workload (no C compiler for a native workload), 4 when the expected
simulation tier did not run, 5 when the run overran its time limit.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".e2ebench-work"
WORKLOAD_NAMES = ("fuzz-addmult", "fuzz-lanes", "edit-loop",
                  "conformance-cold")

#: Measuring processes per untraced run.
PROCESSES = 5
#: Processes per untraced run that only set up, one after each measuring
#: process but the last, so set-up time is a median of nine cold starts
#: spread over the run.
SETUP_ONLY = 4
#: Wall-clock limit of all worker processes together, inside the 180 s a
#: run may take.
TIME_LIMIT = 170

END_TO_END_UNITS = {"tx_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "fuzz.stimulus_us_per_tx": "us", "fuzz.check_us_per_tx": "us",
    "driver.self_us_per_tx": "us", "native.run_us_per_tx": "us",
    "native.calls": "count", "native.build_s_per_seed": "s",
    "native.builds": "count", "native.cache_hits": "count",
    "codegen.build_ms_per_edit": "ms", "codegen.build_ms_per_seed": "ms",
    "codegen.cache_entries": "count", "engine.build_ms_per_edit": "ms",
    "sim.run_ms_per_seed": "ms", "session.verilog_ms_per_edit": "ms",
    "queries.executed_per_edit": "count",
    "session.compile_ms_per_seed": "ms", "generator.ms_per_seed": "ms",
    "reimport.ms_per_seed": "ms", "conformance.self_ms_per_seed": "ms",
    "harness.build_ms_per_edit": "ms", "gc.pause_ms": "ms",
    "gc.collections": "count", "setup.compile_s": "s",
    "setup.native_build_s": "s", "setup.codegen_s": "s",
    "op_ms_p50": "ms", "op_ms_p90": "ms", "unattributed.share": "fraction",
    "trace.overhead": "fraction",
}


def summarize(blocks) -> dict:
    """End-to-end figures of timed blocks over all their operations, each
    operation's time scaled to the reference host speed, and ``slowdown``,
    how many times slower than that reference the host ran."""
    durations = [duration for block in blocks
                 for duration in block["durations"]]
    scaled = sorted(duration * factor for block in blocks
                    for duration, factor in zip(block["durations"],
                                                block["speeds"]))
    transactions = sum(block["transactions"] for block in blocks)
    return {
        "op_ms_p50": statistics.median(scaled) * 1e3,
        "op_ms_p90": scaled[int(0.9 * (len(scaled) - 1))] * 1e3,
        "tx_per_s": transactions / sum(scaled),
        "ops_per_s": len(scaled) / sum(scaled),
        "slowdown": sum(durations) / sum(scaled),
    }


class ChildFailed(Exception):
    def __init__(self, code: int) -> None:
        super().__init__(f"worker exited with status {code}")
        self.code = code


def _host() -> dict:
    compiler = os.environ.get("REPRO_CC") or shutil.which("cc") \
        or shutil.which("gcc") or shutil.which("clang")
    version = "none"
    if compiler:
        try:
            probe = subprocess.run([compiler, "--version"],
                                   capture_output=True, text=True,
                                   timeout=30)
            version = (probe.stdout or probe.stderr).splitlines()[0]
        except (OSError, IndexError, subprocess.TimeoutExpired):
            version = "unavailable"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "cc": version,
            "REPRO_CC": os.environ.get("REPRO_CC", "<unset>")}


def _run_worker(args, sample: Path, seconds: float, extra,
                deadline: float) -> dict:
    """One worker process with fresh cache directories under ``sample``."""
    env = dict(os.environ)
    for variable, name in (("REPRO_STORE_DIR", "store"),
                           ("REPRO_NATIVE_CACHE_DIR", "native"),
                           ("TMPDIR", "tmp")):
        directory = sample / name
        directory.mkdir(parents=True)
        env[variable] = str(directory)
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               *extra]
    started = time.monotonic()
    proc = subprocess.run(command + ["--started", repr(started)],
                          stdout=subprocess.PIPE, text=True, env=env,
                          cwd=str(ROOT),
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise ChildFailed(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(args, extra) -> tuple:
    """Results of the run's measuring worker processes and the set-up times
    of every worker process, run one after another."""
    processes = 1 if args.trace else PROCESSES
    setup_only = 0 if args.trace else SETUP_ONLY
    deadline = time.monotonic() + TIME_LIMIT
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(WORK)))
    try:
        results, setups = [], []
        for index in range(processes):
            results.append(_run_worker(args, work / f"process{index}",
                                       args.seconds / processes, extra,
                                       deadline))
            setups.append(results[-1])
            if index < setup_only:
                setups.append(_run_worker(
                    args, work / f"setup{index}", 0,
                    extra + ["--setup-only"], deadline))
        setups = [setup["setup_s"] * setup["setup_speed"]
                  for setup in setups]
        return results, setups
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end, per-layer benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--block-ops", type=int, default=None,
                        help="smoke runs: operations per timed block")
    parser.add_argument("--wrong-golden", action="store_true",
                        help="self-test: check against a wrong golden model")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SOURCE} (the benchmark measures "
              f"the repro package in the checkout it runs from)",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SOURCE), quiet=1)

    extra = []
    if args.block_ops is not None:
        extra += ["--block-ops", str(args.block_ops)]
    if args.wrong_golden:
        extra.append("--wrong-golden")
    try:
        results, setups = _measure(args, extra)
    except ChildFailed as failure:
        print(f"error: {args.workload} did not complete ({failure})",
              file=sys.stderr)
        return failure.code
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} overran {TIME_LIMIT} s",
              file=sys.stderr)
        return 5

    host = _host()
    print(f"e2ebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host: " + " ".join(f"{key}={value}" for key, value
                              in host.items()))
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    untraced = summarize([block for result in results
                          for block in result["untraced"]])
    untraced["setup_s"] = statistics.median(setups)
    untraced["peak_rss_mb"] = statistics.median(result["peak_rss_mb"]
                                                for result in results)
    for index, result in enumerate(results):
        figures = summarize(result["untraced"])
        print(f"  process {index}: "
              f"{sum(len(block['durations']) for block in result['untraced'])}"
              f" untraced ops in {len(result['untraced'])} blocks, host "
              f"{figures['slowdown']:.3f}x slower than the reference; "
              f"setup_s={result['setup_s'] * result['setup_speed']:.6g} "
              f"op_ms_p50={figures['op_ms_p50']:.6g} "
              f"tx_per_s={figures['tx_per_s']:.6g} (unscaled "
              f"{figures['tx_per_s'] / figures['slowdown']:.6g}) "
              f"peak_rss_mb={result['peak_rss_mb']:.6g}")
    print(f"  error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    if args.workload == "edit-loop":
        print(f"  edit_ms_p50 {untraced['op_ms_p50']:.4f} ms "
              f"(p90 {untraced['op_ms_p90']:.4f} ms)")
    if args.workload == "conformance-cold":
        print(f"  seeds_per_s {untraced['ops_per_s']:.4f} 1/s")
    if args.trace:
        result = results[0]
        traced = summarize(result["traced"])
        metrics = dict(result["layers"])
        metrics["op_ms_p50"] = untraced["op_ms_p50"]
        metrics["op_ms_p90"] = untraced["op_ms_p90"]
        metrics["trace.overhead"] = untraced["tx_per_s"] / traced["tx_per_s"] - 1
        units = PER_LAYER_UNITS
        print("  self time by layer (share of the traced timed region):")
        for layer, share in sorted(result["breakdown"].items(),
                                   key=lambda item: -item[1]):
            print(f"    {layer:<18} {share * 100:6.2f} %")
        print(f"  tracing overhead: op_ms_p50 {untraced['op_ms_p50']:.4g} ms "
              f"untraced, {traced['op_ms_p50']:.4g} ms traced; tx_per_s "
              f"{untraced['tx_per_s']:.6g} untraced, "
              f"{traced['tx_per_s']:.6g} traced "
              f"({metrics['trace.overhead'] * 100:+.2f} %)")
    else:
        metrics = {name: untraced[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
