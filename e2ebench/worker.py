"""One measured workload run, in a process of its own.

``run.py`` starts this script with fresh, empty cache directories; it
prints one JSON line of raw results on standard output.
Exit codes: 0 measured, 3 skipped (host cannot run the workload), 4 the
expected simulation tier did not run.

Operations run in blocks (see ``workloads.py``).  With ``--trace 1``
blocks alternate between untraced and traced (the :mod:`spans` wrappers
are installed around every second block), so the per-layer figures come
with the tracing overhead measured in the same process over the same
kind of work.

The host may be shared, and other tenants can slow everything that runs
on it by 70% for minutes at a time.  So a :func:`probe` of the host's
current speed runs before and after set-up and between any two
operations, outside the timed region, and every time is reported with the
speed factor it was measured at (``PROBE_REFERENCE_S`` over the mean of
the probes around it).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Skip, TierError  # noqa: E402

#: Time one :func:`probe` takes on the development host (x86-64, CPython
#: 3.11) when no other tenant slows it.
PROBE_REFERENCE_S = 0.95e-3


def probe() -> float:
    """Seconds a fixed, allocation-heavy pure-Python loop takes now: the
    host's current speed for code like the harness.  On a shared 2-vCPU
    host, while other tenants slowed the AddMult fuzz call by up to 70%,
    the call's time over the probe's stayed within 10%.  The collector is
    off, so the program's heap does not leak into the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [{"a": i, "b": i * 3, "c": i ^ 5} for i in range(3000)]
        total = 0
        for row in rows:
            total += (row["a"] + row["b"]) * row["c"] & 0xFFFF
        sorted(str(row["b"]) for row in rows[:500])
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed(probes) -> float:
    """Speed factor of work timed between ``probes``: each of its seconds
    is this many seconds at the reference speed."""
    return PROBE_REFERENCE_S / (sum(probes) / len(probes))


class Region:
    """Timed operations, the speed factor each ran at, and their outcomes."""

    def __init__(self, blocks=()) -> None:
        self.durations = []
        self.speeds = []
        self.attempted = self.failed = self.transactions = 0
        for block in blocks:
            self.durations += block.durations
            self.speeds += block.speeds
            self.attempted += block.attempted
            self.failed += block.failed
            self.transactions += block.transactions

    def run(self, workload, before: float) -> float:
        """One operation between the probe ``before`` it and one after it,
        which it returns."""
        start = time.perf_counter()
        attempted, failed, transactions = workload.op()
        self.durations.append(time.perf_counter() - start)
        after = probe()
        self.speeds.append(speed((before, after)))
        self.attempted += attempted
        self.failed += failed
        self.transactions += transactions
        return after

    def seconds(self) -> float:
        return sum(self.durations)


def _counters(workload) -> dict:
    """The program's own counters and the workload's units, cumulative."""
    from repro.sim import native
    native_stats = native.native_cache_stats()
    session = getattr(workload, "session", None)
    return {
        "native_builds": native_stats["misses"] - native_stats["disk_hits"],
        "native_cache_hits": native_stats["hits"] + native_stats["disk_hits"],
        "queries_executed": (session.query_stats()["executed"]
                             if session is not None else 0),
        "edits": workload.edits,
        "seeds": workload.seeds,
    }


def _run_blocks(workload, seconds: float, block_ops: int, tracer=None):
    """Blocks of ``block_ops`` operations until ``seconds`` have passed
    (at least one block, two with a tracer).  With a tracer every second
    block is traced and the program's counters are summed over the traced
    blocks.  Peak RSS is read once ``workload.rss_ops`` operations are
    done, so it covers a fixed amount of work however fast that work runs.
    Returns ``(untraced, traced, counters, rss_mb)``."""
    untraced, traced = [], []
    counters = dict.fromkeys(_counters(workload), 0)
    rss_mb = None
    ops = 0
    begin = time.perf_counter()
    least = 1 if tracer is None else 2
    while (len(untraced) + len(traced) < least or rss_mb is None
           or time.perf_counter() - begin < seconds):
        traced_block = tracer is not None and len(untraced) > len(traced)
        workload.new_block()
        block = Region()
        if traced_block:
            before = _counters(workload)
            tracer.install()
        try:
            last = probe()
            for _ in range(block_ops):
                last = block.run(workload, last)
        finally:
            if traced_block:
                tracer.uninstall()
        if traced_block:
            for key, value in _counters(workload).items():
                counters[key] += value - before[key]
            traced.append(block)
        else:
            untraced.append(block)
        ops += block_ops
        if rss_mb is None and ops >= workload.rss_ops:
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return untraced, traced, counters, rss_mb


def _raw(blocks) -> list:
    return [{"durations": block.durations, "speeds": block.speeds,
             "transactions": block.transactions} for block in blocks]


def _layer_metrics(region: Region, layers: dict, setup: dict,
                   setup_speed: float, counters: dict) -> tuple:
    """Per-layer figures of the traced operations, times at the reference
    speed like the end-to-end figures; a figure normalised by a unit the
    workload does not have (edits, seeds) reads 0."""
    from repro.sim import codegen
    scale = sum(duration * factor for duration, factor
                in zip(region.durations, region.speeds)) / region.seconds()
    ns = {layer: value * scale for layer, value in layers["self_ns"].items()}
    setup_ns = {layer: value * setup_speed
                for layer, value in setup["self_ns"].items()}
    calls = layers["calls"]
    tx = region.transactions
    edits = counters["edits"]
    seeds = counters["seeds"]

    def per(total: float, unit: int) -> float:
        return total / unit if unit else 0.0

    region_ns = region.seconds() * 1e9 * scale
    unattributed = region_ns - sum(ns.values())
    metrics = {
        "fuzz.stimulus_us_per_tx": per(ns["fuzz.stimulus"] / 1e3, tx),
        "fuzz.check_us_per_tx": per(ns["fuzz.check"] / 1e3, tx),
        "driver.self_us_per_tx": per(ns["driver"] / 1e3, tx),
        "native.run_us_per_tx": per(ns["native.run"] / 1e3, tx),
        "native.calls": calls["ScheduledEngine.run_columns"]
        + calls["ScheduledEngine.run_lane_columns"],
        "native.build_s_per_seed": per(ns["native.build"] / 1e9, seeds),
        "native.builds": counters["native_builds"],
        "native.cache_hits": counters["native_cache_hits"],
        "codegen.build_ms_per_edit": per(ns["codegen"] / 1e6, edits),
        "codegen.build_ms_per_seed": per(ns["codegen"] / 1e6, seeds),
        # Every generated program enters the LRU; only the bound evicts.
        "codegen.cache_entries": min(codegen.kernel_cache_stats()["misses"],
                                     codegen.kernel_cache_limit()),
        "engine.build_ms_per_edit": per(ns["engine.build"] / 1e6, edits),
        "sim.run_ms_per_seed": per(ns["sim.run"] / 1e6, seeds),
        "session.verilog_ms_per_edit": per(ns["session.verilog"] / 1e6,
                                           edits),
        "queries.executed_per_edit": per(counters["queries_executed"],
                                         edits),
        "session.compile_ms_per_seed": per(
            (ns["session.calyx"] + ns["session.verilog"]) / 1e6, seeds),
        "generator.ms_per_seed": per(ns["generator"] / 1e6, seeds),
        "reimport.ms_per_seed": per(ns["reimport"] / 1e6, seeds),
        "conformance.self_ms_per_seed": per(ns["conformance"] / 1e6, seeds),
        "harness.build_ms_per_edit": per(ns["harness.build"] / 1e6, edits),
        "gc.pause_ms": layers["gc_pause_ns"] * scale / 1e6,
        "gc.collections": layers["gc_collections"],
        "setup.compile_s": (setup_ns["session.calyx"]
                            + setup_ns["session.verilog"]) / 1e9,
        "setup.native_build_s": setup_ns["native.build"] / 1e9,
        "setup.codegen_s": setup_ns["codegen"] / 1e9,
        "unattributed.share": unattributed / region_ns,
    }
    breakdown = {layer: value / region_ns for layer, value in ns.items()}
    breakdown["unattributed"] = unattributed / region_ns
    return metrics, breakdown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started "
                             "this process")
    parser.add_argument("--block-ops", type=int, default=None,
                        help="operations per block (default: the "
                             "workload's; smaller for smoke runs)")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time only")
    parser.add_argument("--wrong-golden", action="store_true",
                        help="check against a deliberately wrong golden "
                             "model (self-test of the check)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.wrong_golden)
    block_ops = args.block_ops or workload.block_ops
    tracer = None
    # Set-up is timed from when the parent started this process, less the
    # time of this probe.
    first = probe()
    try:
        if args.trace:
            from spans import Tracer, difference
            tracer = Tracer()
            tracer.install()
            before = tracer.snapshot()
        workload.setup()
        setup_end = time.monotonic()
        result = {"setup_s": setup_end - args.started - first,
                  "setup_speed": speed((first, probe()))}
        workload.gate()
        if args.setup_only:
            print(json.dumps(result))
            return 0
        if tracer is not None:
            setup_layers = difference(tracer.snapshot(), before)
            tracer.uninstall()
            before = tracer.snapshot()
        untraced, traced, counters, rss_mb = _run_blocks(
            workload, args.seconds, block_ops, tracer)
        workload.gate()
    except Skip as skip:
        print(f"SKIP {args.workload}: {skip}", file=sys.stderr)
        return 3
    except TierError as error:
        print(f"TIER FAILURE {error}", file=sys.stderr)
        return 4

    every = Region(untraced + traced)
    result.update({
        "peak_rss_mb": rss_mb,
        "untraced": _raw(untraced),
        "traced": _raw(traced),
        "attempted": every.attempted,
        "failed": every.failed,
    })
    if tracer is not None:
        layers = difference(tracer.snapshot(), before)
        result["layers"], result["breakdown"] = _layer_metrics(
            Region(traced), layers, setup_layers, result["setup_speed"],
            counters)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
