"""Section 7, "All benchmarks compile in under a second".

Times the full compilation of every evaluation design and asserts the
one-second bound the paper reports for its (Rust) compiler also holds for
this Python reproduction.  On top of the paper's headline number this file
reports the :class:`~repro.core.session.CompilationSession` instrumentation:

* the per-stage breakdown (check / lower / calyx emit) of every design;
* the warm recompile time, which must be a cache hit (no re-typecheck);
* the simulator's before/after cycles-per-second figure — the naive
  fixpoint interpreter versus the compiled, scheduled engine;
* the per-edit depth sweep: one leaf edit of a 16-, 64- and 256-component
  chain, re-emitted as Verilog, rebuilt as a compiled-tier harness
  simulator and prepared (its kernel linked and instantiated), with the
  number of components the edit prints, of plans it resolves and of
  kernel chunks it links — each the same at every depth — and the Python
  calls one cycle of the warm kernel makes, its reused runs of segments
  fused into pieces of at most 16: no more than 2*ceil((d-1)/16) + 1 at
  depth d; and the slot stores that cycle executes, the pieces leaving
  out those nothing reads: no more than 3*d + 32 at depth d.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.lower import compile_program
from repro.core.session import CompilationSession
from repro.evaluation import (
    evaluation_designs,
    measure_compile_times,
    measure_edit_costs,
    measure_incremental_compile,
    measure_sim_throughput,
)


def _fused_calls_bound(depth: int) -> int:
    """The most Python calls per cycle a warm leaf edit of a ``depth``-deep
    chain may make: the two runs of ``depth - 1`` segments around the leaf
    in pieces of at most 16, and the leaf's own segment."""
    return 2 * -(-(depth - 1) // 16) + 1


def _fused_stores_bound(depth: int) -> int:
    """The most slot stores per cycle a warm leaf edit of a ``depth``-deep
    chain may execute: linear in depth, set from the fused kernel's 56,
    164 and 596 at depth 16, 64 and 256 (2.25 per link); a kernel that
    stores every slot, as every kernel did before fused pieces left
    stores out, makes 13 per link."""
    return 3 * depth + 32


@pytest.mark.parametrize("name,thunk", evaluation_designs(),
                         ids=[name for name, _ in evaluation_designs()])
def test_compile_time_per_design(benchmark, name, thunk):
    program, entrypoint = thunk()
    calyx = benchmark.pedantic(compile_program, args=(program, entrypoint),
                               rounds=3, iterations=1)
    assert calyx.entrypoint == entrypoint


def test_all_designs_compile_under_a_second(benchmark):
    timings = benchmark.pedantic(measure_compile_times, rounds=1, iterations=1)
    print()
    for timing in timings:
        print(f"{timing.name:20s} {timing.seconds * 1000:7.1f} ms")
    assert all(timing.under_a_second for timing in timings)


def test_stage_breakdown_and_warm_recompile(benchmark):
    """Per-stage timings from the session instrumentation; the warm
    recompile must be a cache hit (orders of magnitude below cold)."""
    timings = benchmark.pedantic(measure_compile_times, rounds=1, iterations=1)
    print()
    print(f"{'design':20s} {'check':>9} {'lower':>9} {'calyx':>9} "
          f"{'cold':>9} {'warm':>10}")
    for timing in timings:
        stages = timing.stages
        print(f"{timing.name:20s} "
              f"{stages.get('check', 0.0) * 1000:7.2f}ms "
              f"{stages.get('lower', 0.0) * 1000:7.2f}ms "
              f"{stages.get('calyx', 0.0) * 1000:7.2f}ms "
              f"{timing.seconds * 1000:7.2f}ms "
              f"{timing.warm_seconds * 1e6:8.1f}us")
        assert set(stages) == {"check", "lower", "calyx"}
        assert timing.warm_seconds < timing.seconds


def test_session_recompile_is_a_cache_hit():
    """Recompiling the same entrypoint through one session re-runs no
    stage: the check/lower/calyx counters record hits, not misses."""
    program, entrypoint = evaluation_designs()[0][1]()
    session = CompilationSession(program)
    first = session.calyx(entrypoint)
    baseline = session.cache_stats()
    second = session.calyx(entrypoint)
    assert second is first
    stats = session.cache_stats()
    assert stats["calyx"]["hits"] == baseline["calyx"]["hits"] + 1
    assert stats["check"]["misses"] == baseline["check"]["misses"]
    assert stats["lower"]["misses"] == baseline["lower"]["misses"]


def test_incremental_edit_recompiles_only_the_dirty_component(benchmark):
    """The incremental-edit figure: editing one leaf of a K-component chain
    recompiles exactly that component (its clients survive via early
    cutoff) and regenerates exactly its kernel chunk, the incremental
    artifacts are byte-identical to a from-scratch compile of the mutated
    program, and the recompile and simulator rebuild beat cold."""
    timing = benchmark.pedantic(measure_incremental_compile, args=(16,),
                                rounds=1, iterations=1)
    print()
    print(f"{timing.name:20s} cold {timing.cold_seconds * 1000:7.2f}ms  "
          f"warm {timing.warm_seconds * 1e6:8.1f}us  "
          f"incremental {timing.incremental_seconds * 1000:7.2f}ms  "
          f"scratch {timing.scratch_seconds * 1000:7.2f}ms  "
          f"({timing.incremental_speedup:.1f}x vs cold)")
    print(f"{'':20s} simulator rebuild "
          f"{timing.rebuild_seconds * 1000:7.2f}ms  "
          f"cold {timing.cold_rebuild_seconds * 1000:7.2f}ms  "
          f"({timing.rebuild_speedup:.1f}x vs cold, "
          f"{timing.chunks_regenerated} chunk regenerated)")
    assert timing.recompiled == ["Chain0"]
    assert timing.chunks_regenerated == 1
    assert timing.identical
    if not benchmark.disabled:
        assert timing.warm_seconds < timing.cold_seconds
        assert timing.incremental_seconds < timing.cold_seconds
        assert timing.rebuild_seconds < timing.cold_rebuild_seconds


def test_an_edit_prints_the_same_components_at_every_depth(benchmark):
    """The depth sweep: a leaf edit prints the edited component alone,
    and resolves as many plans and links as many kernel chunks, however
    many components the design has; from the second edit on, its kernel
    runs the rest of the chain in fused pieces."""
    costs = benchmark.pedantic(measure_edit_costs, kwargs={"edits": 3},
                               rounds=1, iterations=1)
    print()
    for cost in costs:
        print(f"chain{cost.depth:<4d} {cost.median_seconds * 1000:7.2f} ms "
              f"per edit, {cost.prepare_seconds * 1000:7.2f} ms prepare "
              f"({cost.instance_seconds * 1000:.3f} ms instance), "
              f"{cost.printed_per_edit:g} components printed, "
              f"{cost.plans_per_edit:g} plans resolved, "
              f"{cost.chunks_per_edit:g} chunks linked, "
              f"{cost.calls_per_cycle} calls per cycle, "
              f"{cost.stores_per_cycle} stores per cycle")
    assert [cost.depth for cost in costs] == [16, 64, 256]
    assert len({(cost.printed_per_edit, cost.plans_per_edit,
                 cost.chunks_per_edit) for cost in costs}) == 1
    assert all(cost.calls_per_cycle <= _fused_calls_bound(cost.depth)
               for cost in costs)
    assert all(cost.stores_per_cycle <= _fused_stores_bound(cost.depth)
               for cost in costs)


def test_simulator_cycles_per_second(benchmark):
    """The before/after figure for the simulation engine tiers: the
    scheduled engine must be measurably (>= 2x on at least one design)
    faster than the fixpoint interpreter on the same stimulus, and the
    compiled kernel faster again."""
    results = benchmark.pedantic(measure_sim_throughput, rounds=1, iterations=1)
    print()
    print(f"{'design':20s} {'cycles':>7} {'fixpoint c/s':>13} "
          f"{'scheduled c/s':>14} {'compiled c/s':>13} {'sched':>7} "
          f"{'kernel':>7}")
    for result in results:
        print(f"{result.name:20s} {result.cycles:7d} "
              f"{result.fixpoint_cps:13.0f} {result.scheduled_cps:14.0f} "
              f"{result.compiled_cps:13.0f} {result.speedup:6.2f}x "
              f"{result.kernel_speedup:6.2f}x")
    if not benchmark.disabled:
        # Timing assertions are for real benchmark runs only; the CI smoke
        # invocation (--benchmark-disable, shared runners) just prints.
        assert max(result.speedup for result in results) >= 2.0
        assert max(result.kernel_speedup for result in results) >= 2.0


def main() -> int:
    """Persist the per-design engine-tier figure, the incremental-edit
    compile and simulator-rebuild figure and the per-edit depth sweep as
    ``BENCH_compile_time.json`` (the common benchmark schema), and gate on
    warm / incremental-edit recompiles beating cold, the incremental
    simulator rebuild beating a cold one, an edit printing as many
    components, resolving as many plans and linking as many kernel chunks
    at every depth of the sweep, and a warm leaf edit's kernel making no
    more calls and executing no more slot stores per cycle than
    :func:`_fused_calls_bound` and :func:`_fused_stores_bound` allow
    (counts, not timings)."""
    from common import write_bench

    rows = []
    for result in measure_sim_throughput():
        for engine, rate in (("fixpoint", result.fixpoint_cps),
                             ("scheduled", result.scheduled_cps),
                             ("compiled", result.compiled_cps)):
            rows.append({"engine": engine, "config": result.name,
                         "tx_per_sec": rate})

    # The incremental-edit section: compiles/sec of a 16-component chain,
    # cold vs warm vs after an in-place one-leaf edit.  These rows carry
    # their own baseline ("cold") so their speedups do not look for a
    # fixpoint row that cycles/sec rows use.
    timing = measure_incremental_compile(16)
    for engine, seconds in (("cold", timing.cold_seconds),
                            ("warm", timing.warm_seconds),
                            ("incremental-edit", timing.incremental_seconds),
                            ("scratch-edit", timing.scratch_seconds)):
        rows.append({"engine": engine, "config": timing.name,
                     "tx_per_sec": 1.0 / max(seconds, 1e-9),
                     "baseline": "cold",
                     "recompiled_components": (
                         len(timing.recompiled)
                         if engine == "incremental-edit"
                         else timing.components
                         if engine in ("cold", "scratch-edit") else 0)})
    # The simulator side of the same edit: the compiled-tier harness
    # rebuild, warm against cold plan and kernel-chunk caches.
    for engine, seconds, chunks in (
            ("cold-rebuild", timing.cold_rebuild_seconds, timing.components),
            ("incremental-rebuild", timing.rebuild_seconds,
             timing.chunks_regenerated)):
        rows.append({"engine": engine, "config": timing.name,
                     "tx_per_sec": 1.0 / max(seconds, 1e-9),
                     "baseline": "cold-rebuild",
                     "chunks_regenerated": chunks})

    # The depth sweep: per-edit session.verilog + harness_for + simulator
    # build against design size, relative to the 16-component chain, with
    # the simulator's prepare() next to it, the two together and the
    # kernel instance alone, the warm kernel's calls and stores per cycle
    # and the one-time cost of compiling its fused pieces.
    costs = measure_edit_costs()
    for cost in costs:
        rows.append({"engine": "edit", "config": f"chain{cost.depth}",
                     "tx_per_sec": 1.0 / max(cost.median_seconds, 1e-9),
                     "baseline": f"edit chain{costs[0].depth}",
                     "ms_per_edit": round(cost.median_seconds * 1000, 3),
                     "prepare_ms_per_edit": round(
                         cost.prepare_seconds * 1000, 3),
                     "ms_per_edit_with_prepare": round(
                         cost.total_seconds * 1000, 3),
                     "instance_ms_per_edit": round(
                         cost.instance_seconds * 1000, 3),
                     "edits": cost.edits,
                     "printed_per_edit": cost.printed_per_edit,
                     "plans_per_edit": cost.plans_per_edit,
                     "chunks_per_edit": cost.chunks_per_edit,
                     "calls_per_cycle": cost.calls_per_cycle,
                     "stores_per_cycle": cost.stores_per_cycle,
                     "fusion_ms_once": round(cost.fusion_seconds * 1000, 3)})

    # Per-design baseline: each design's speedups are relative to its own
    # fixpoint rate (a cross-design ratio would conflate design size with
    # engine speed).
    from datetime import datetime, timezone
    path = write_bench("compile_time",
                       "evaluation designs cycles/sec + chain16 compiles/sec"
                       " + chain16/64/256 edits/sec",
                       rows, baseline="fixpoint",
                       timestamp=datetime.now(timezone.utc).isoformat(
                           timespec="seconds"))
    print(f"figure written to {path}")
    print(f"incremental edit: recompiled {timing.recompiled} of "
          f"{timing.components} components, "
          f"{timing.incremental_speedup:.1f}x vs cold "
          f"(byte-identical: {timing.identical}); simulator rebuild "
          f"regenerated {timing.chunks_regenerated} chunk(s), "
          f"{timing.rebuild_speedup:.1f}x vs cold")
    for cost in costs:
        print(f"edit sweep chain{cost.depth}: "
              f"{cost.median_seconds * 1000:.2f} ms per edit + "
              f"{cost.prepare_seconds * 1000:.2f} ms prepare = "
              f"{cost.total_seconds * 1000:.2f} ms "
              f"({cost.total_seconds / costs[0].total_seconds:.2f}x "
              f"chain{costs[0].depth}; median of {cost.edits}), "
              f"{cost.instance_seconds * 1000:.3f} ms kernel instance, "
              f"{cost.printed_per_edit:g} components printed, "
              f"{cost.plans_per_edit:g} plans resolved, "
              f"{cost.chunks_per_edit:g} chunks linked per edit, "
              f"{cost.calls_per_cycle} calls per cycle warm "
              f"(at most {_fused_calls_bound(cost.depth)}), "
              f"{cost.stores_per_cycle} stores per cycle "
              f"(at most {_fused_stores_bound(cost.depth)}), "
              f"{cost.fusion_seconds * 1000:.1f} ms compiling fused pieces "
              f"once")
    if not timing.identical:
        print("FAIL: incremental artifacts differ from a scratch compile")
        return 1
    if len({cost.printed_per_edit for cost in costs}) != 1:
        print("FAIL: an edit prints more components in a deeper design")
        return 1
    if len({cost.plans_per_edit for cost in costs}) != 1:
        print("FAIL: an edit resolves more plans in a deeper design")
        return 1
    if len({cost.chunks_per_edit for cost in costs}) != 1:
        print("FAIL: an edit links more kernel chunks in a deeper design")
        return 1
    for cost in costs:
        if cost.calls_per_cycle > _fused_calls_bound(cost.depth):
            print(f"FAIL: a warm chain{cost.depth} edit's kernel makes "
                  f"{cost.calls_per_cycle} calls per cycle, more than "
                  f"{_fused_calls_bound(cost.depth)}")
            return 1
        if cost.stores_per_cycle > _fused_stores_bound(cost.depth):
            print(f"FAIL: a warm chain{cost.depth} edit's kernel executes "
                  f"{cost.stores_per_cycle} slot stores per cycle, more "
                  f"than {_fused_stores_bound(cost.depth)}")
            return 1
    if timing.warm_seconds >= timing.cold_seconds:
        print("FAIL: warm recompile did not beat cold")
        return 1
    if timing.incremental_seconds >= timing.cold_seconds:
        print("FAIL: incremental-edit recompile did not beat cold")
        return 1
    if timing.rebuild_seconds >= timing.cold_rebuild_seconds:
        print("FAIL: incremental simulator rebuild did not beat cold")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
