"""Unit tests for the native C execution tier (:mod:`repro.sim.native`).

The per-primitive behavioural sweep lives in ``test_width_boundaries.py``
(which runs every boundary width through all four tiers); this module pins
down the tier's *plumbing*: conflict-error parity, every fallback reason
(black-box primitive, over-wide value, missing compiler), the digest-keyed
in-memory + on-disk cache and its ABI- and flag-versioned keys, the
session's one ``"native"`` stage, generated C that is warning-clean and
UBSan-clean at the production flags, and the bounded
:class:`~repro.core.store.DigestCache` the digest-keyed caches share.
"""

import ctypes
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.calyx.ir import (
    Assignment,
    CalyxComponent,
    CalyxProgram,
    Cell,
    CellPort,
    Guard,
    PortSpec,
)
from repro.conformance import run_conformance
from repro.conformance.generator import generate
from repro.core.errors import SimulationError
from repro.core.session import CompilationSession
from repro.core.store import ArtifactStore, DigestCache
from repro.designs import addmult_program, conv2d_base_program
from repro.evaluation import chain_program
from repro.harness import harness_for, random_transactions
from repro.sim import Simulator, X, clear_native_cache, compiler_available
from repro.sim import create_primitive
from repro.sim import native as native_module
from repro.sim.engine import rows_to_columns

from test_codegen import (
    _mangled_alike_program,
    _same_traces,
    _single_cell_program,
    _stimulus,
)
from test_width_boundaries import _cases

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler on host")


def _guarded_program():
    """Two guarded drivers onto one output — the conflict-error testbed."""
    component = CalyxComponent(
        "top", inputs=[PortSpec("g", 1), PortSpec("h", 1),
                       PortSpec("a", 8), PortSpec("b", 8)],
        outputs=[PortSpec("o", 8)])
    component.add_wire(Assignment(
        CellPort(None, "o"), CellPort(None, "a"),
        Guard((CellPort(None, "g"),))))
    component.add_wire(Assignment(
        CellPort(None, "o"), CellPort(None, "b"),
        Guard((CellPort(None, "h"),))))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


class TestConflictParity:
    CONFLICT = [
        {"g": 1, "h": 0, "a": 3, "b": 4},
        {"g": 1, "h": 1, "a": 3, "b": 4},
    ]

    def _message(self, mode):
        simulator = Simulator(_guarded_program(), mode=mode)
        with pytest.raises(SimulationError) as info:
            simulator.run_batch(self.CONFLICT)
        return simulator, str(info.value)

    @needs_cc
    def test_conflict_message_is_byte_identical_across_tiers(self):
        native, message = self._message("native")
        assert native.uses_native(), native.native_fallback_reason
        assert "cycle 1" in message
        for mode in ("auto", "fixpoint", "compiled"):
            assert self._message(mode)[1] == message, mode

    @needs_cc
    def test_agreeing_drivers_do_not_conflict(self):
        stimulus = [{"g": 1, "h": 1, "a": 9, "b": 9},
                    {"g": 0, "h": 1, "a": 1, "b": 7}]
        reference = Simulator(_guarded_program(),
                              mode="fixpoint").run_batch(stimulus)
        native = Simulator(_guarded_program(), mode="native")
        _same_traces(reference, native.run_batch(stimulus))
        assert native.uses_native(), native.native_fallback_reason


class TestFallbackReasons:
    def test_black_box_primitive_falls_back_with_reason(self):
        import repro.generators.reticle.dsp  # noqa: F401 — registers Tdot

        rng = random.Random(11)
        widths = {p: 8 for p in ("a0", "b0", "a1", "b1", "a2", "b2", "c")}
        program = _single_cell_program("Tdot", (8,), widths)
        stimulus = _stimulus(rng, widths, 8)
        reference = Simulator(program, mode="auto").run_batch(stimulus)
        native = Simulator(program, mode="native")
        _same_traces(reference, native.run_batch(stimulus))
        assert not native.uses_native()
        assert "black-box" in native.native_fallback_reason
        # The chain degrades one tier, not two: the compiled-Python kernel
        # (which *can* call back into black-box models) still runs.
        assert native.uses_kernel(), native.kernel_fallback_reason

    def test_missing_compiler_falls_back_with_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc-for-test")
        monkeypatch.setattr(native_module, "_COMPILER_CACHE", {})
        # A program another test already loaded would skip the compiler.
        monkeypatch.setattr(native_module, "_CACHE",
                            DigestCache(native_module._CACHE.bound))
        program = _single_cell_program("Add", (8,),
                                       {"left": 8, "right": 8})
        stimulus = [{"i_left": 1, "i_right": 2}]
        native = Simulator(program, mode="native")
        trace = native.run_batch(stimulus)
        assert not native.uses_native()
        assert "compiler" in native.native_fallback_reason
        _same_traces(Simulator(program, mode="auto").run_batch(stimulus),
                     trace)


@needs_cc
class TestNativeCache:
    def test_memory_then_disk_hits_by_netlist_digest(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        clear_native_cache()
        program = _single_cell_program("Sub", (16,),
                                       {"left": 16, "right": 16})
        stimulus = [{"i_left": 5, "i_right": 3}]

        first = Simulator(program, mode="native")
        first.run_batch(stimulus)
        assert first.uses_native(), first.native_fallback_reason
        stats = native_module.native_cache_stats()
        assert stats["misses"] == 1 and stats["disk_hits"] == 0

        second = Simulator(program, mode="native")
        second.run_batch(stimulus)
        stats = native_module.native_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

        # Dropping the in-memory LRU leaves the .so on disk: the next
        # build reloads it instead of re-running the C compiler.
        clear_native_cache()
        third = Simulator(program, mode="native")
        third.run_batch(stimulus)
        assert third.uses_native(), third.native_fallback_reason
        stats = native_module.native_cache_stats()
        assert stats["disk_hits"] == 1

    def test_store_hit_is_reported_as_cached(self, tmp_path, monkeypatch):
        """A ``.so`` served from the store skipped ``cc``: the engine and
        the session's ``"native"`` stage both report it as cached."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        program, entry = chain_program(4)
        clear_native_cache()
        first = CompilationSession(program).simulator(entry, mode="native")
        assert not first.prepare()["native_cached"]

        clear_native_cache()
        session = CompilationSession(program)
        second = session.simulator(entry, mode="native")
        assert second.prepare()["native_cached"]
        assert native_module.native_cache_stats()["disk_hits"] == 1
        assert session.cache_stats()["native"] == {"hits": 1, "misses": 0}
        clear_native_cache()

    def test_objects_built_with_other_flags_are_not_served(self, tmp_path,
                                                          monkeypatch):
        """The ``cc`` flags are part of the store key: after a flag change
        the object built with the old flags is never looked up."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        program = _single_cell_program("Add", (8,),
                                       {"left": 8, "right": 8})
        clear_native_cache()
        _, cached = native_module.native_for(
            Simulator(program, mode="native"))
        assert not cached

        clear_native_cache()
        monkeypatch.setattr(native_module, "_CFLAGS",
                            (*native_module._CFLAGS,
                             "-DREPRO_FLAG_TAG_TEST"))
        _, cached = native_module.native_for(
            Simulator(program, mode="native"))
        assert not cached
        assert native_module.native_cache_stats()["disk_hits"] == 0
        assert ArtifactStore(tmp_path).entry_count() == 2
        # Same C text digest, different flags tag.
        (tag, digest), (tag2, digest2) = (
            path.stem.split("_")[1:]
            for path in sorted(tmp_path.rglob("native_*.bin")))
        assert digest == digest2 and tag != tag2
        clear_native_cache()

    def test_a_changed_c_text_misses_a_warm_store(self, tmp_path,
                                                  monkeypatch):
        """The store key digests the generated C text, so an emitter change
        that alters the C is built afresh from a warm store instead of
        being served the object built from the old text."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        program = _single_cell_program("Add", (8,),
                                       {"left": 8, "right": 8})
        for expect_cached in (False, True):  # cold, then a warm disk hit
            clear_native_cache()
            _, cached = native_module.native_for(
                Simulator(program, mode="native"))
            assert cached is expect_cached

        clear_native_cache()
        emit = native_module.generate_c_source

        def edited(engine):
            source, layout, plans = emit(engine)
            return source + "\n/* emitter change */\n", layout, plans

        monkeypatch.setattr(native_module, "generate_c_source", edited)
        built, cached = native_module.native_for(
            Simulator(program, mode="native"))
        assert not cached and not built.disk_hit
        assert native_module.native_cache_stats()["disk_hits"] == 0
        assert ArtifactStore(tmp_path).entry_count() == 2
        clear_native_cache()


@needs_cc
def test_native_session_records_one_native_stage_per_entrypoint(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    clear_native_cache()
    session = CompilationSession.from_source("""
comp first<G: 1>(
  @interface[G] go: 1,
  @[G, G+1] a: 32
) -> (@[G, G+1] out: 32) {
  out = a;
}
comp second<G: 1>(
  @interface[G] go: 1,
  @[G, G+1] a: 8
) -> (@[G, G+1] out: 8) {
  out = a;
}
""")
    for entrypoint in ("first", "second"):
        simulator = session.simulator(entrypoint, mode="native")
        assert simulator.uses_native(), simulator.native_fallback_reason
    assert session.cache_stats()["native"] == {"hits": 0, "misses": 2}
    clear_native_cache()


@needs_cc
def test_cells_whose_names_mangle_alike_build_and_run_natively(
        tmp_path, monkeypatch):
    """Child cells ``p.q`` and ``p_q`` get distinct struct members, so the
    C compiler accepts the unit and each child computes its own output."""
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    clear_native_cache()
    simulator = Simulator(_mangled_alike_program(), mode="native")
    assert simulator.step({"x": 5}) == {"y1": 6, "y2": 105}
    assert simulator.uses_native(), simulator.native_fallback_reason
    clear_native_cache()


#: One width-boundary primitive per multi-limb C template.
_BOUNDARY_CELLS = ("Add", "Sub", "MultComb", "Lt", "Mux", "ShiftLeft",
                   "ShiftRight", "Slice", "Concat", "Reg")


def _boundary_program(width):
    """The :data:`_BOUNDARY_CELLS` of the width-boundary sweep at
    ``width`` in one netlist, plus a two-driver group onto a
    ``width``-bit output, so one compile covers each multi-limb
    template."""
    component = CalyxComponent(
        "top", inputs=[PortSpec("g", 1), PortSpec("h", 1)],
        outputs=[PortSpec("o", width)])
    cases = [case for case in _cases(width) if case[0] in _BOUNDARY_CELLS]
    for index, (name, params, widths) in enumerate(cases):
        model = create_primitive(name, params)
        cell = f"u{index}"
        component.add_cell(Cell(cell, name, tuple(params)))
        for port, port_width in widths.items():
            component.inputs.append(PortSpec(f"i{index}_{port}", port_width))
            component.add_wire(Assignment(
                CellPort(cell, port), CellPort(None, f"i{index}_{port}")))
        out_width = max([model.width_hint] + list(widths.values()))
        for port in model.outputs:
            component.outputs.append(PortSpec(f"o{index}_{port}", out_width))
            component.add_wire(Assignment(
                CellPort(None, f"o{index}_{port}"), CellPort(cell, port)))
    for guard, src in (("g", "i0_left"), ("h", "i0_right")):
        component.add_wire(Assignment(
            CellPort(None, "o"), CellPort(None, src),
            Guard((CellPort(None, guard),))))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


def _compiled(program, entrypoint):
    return CompilationSession.for_program(program).calyx(entrypoint), \
        entrypoint


def _generated(seed):
    generated = generate(seed)
    return _compiled(generated.program, generated.entrypoint)


#: name -> () -> (calyx program, entrypoint) for the warning sweep.
_WARNING_DESIGNS = {
    "guarded": lambda: (_guarded_program(), "top"),
    "addmult": lambda: _compiled(addmult_program(), "AddMult"),
    "conv2d": lambda: _compiled(conv2d_base_program(), "Conv2d"),
    **{f"boundary{width}": (lambda width=width: (_boundary_program(width),
                                                 "top"))
       for width in (65, 129, 256)},
    **{f"gen{seed}": (lambda seed=seed: _generated(seed))
       for seed in (3, 5, 8)},
}


@needs_cc
@pytest.mark.parametrize("design", sorted(_WARNING_DESIGNS))
def test_generated_c_compiles_warning_clean(design, tmp_path):
    """The emitted translation unit builds under ``-Wall -Wextra -Werror``
    at the production flags: gcc's uninitialised-use warnings depend on
    the optimisation level, so the check uses the level that ships."""
    program, entrypoint = _WARNING_DESIGNS[design]()
    engine = Simulator(program, entrypoint, mode="native")
    source = native_module.generate_c_source(engine)[0]
    c_path = tmp_path / f"{design}.c"
    c_path.write_text(source)
    proc = subprocess.run(
        [native_module.find_compiler(), *native_module._CFLAGS, "-Wall",
         "-Wextra", "-Werror", "-o", str(tmp_path / f"{design}.so"),
         str(c_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[:2000]


def _ubsan_child(case, directory):
    """Body of the child process of
    :func:`test_generated_c_is_ubsan_clean_at_the_production_level`: every
    kernel built here carries the production flags plus UBSan (the flags
    tag keeps these objects apart from production ones in the store).
    ``"kernels"`` drives the width-boundary designs, children whose
    guarded groups go undriven (one-limb single drivers, a 129-bit port
    with two drivers), AddMult lane batches and three generator seeds;
    ``"canary"`` calls a ``<< 64`` compiled the same way, which must
    trap."""
    native_module._CFLAGS = (*native_module._CFLAGS, "-fsanitize=undefined",
                             "-fno-sanitize-recover=all")
    if case == "canary":
        so_path = Path(directory) / "canary.so"
        native_module._compile_so(
            "#include <stdint.h>\n"
            "uint64_t f(uint64_t a, int s) { return a << s; }\n",
            Path(directory) / "canary.c", so_path,
            native_module.find_compiler())
        shift = ctypes.CDLL(str(so_path)).f
        shift.argtypes = (ctypes.c_uint64, ctypes.c_int)
        shift.restype = ctypes.c_uint64
        shift(1, 64)
        return
    rng = random.Random(0)
    for width in (62, 63, 64, 65, 127, 128, 129, 255, 256, 257):
        program = _boundary_program(width)
        # One driver of ``o`` at a time, then both with different values:
        # the last cycle aborts on the conflict path.
        rows = [{port.name: rng.choice((0, (1 << port.width) - 1,
                                        rng.getrandbits(port.width), X))
                 for port in program.get("top").inputs}
                for _ in range(16)]
        for cycle, row in enumerate(rows):
            row["g"], row["h"] = cycle & 1, 1 - (cycle & 1)
        rows.append({"g": 1, "h": 1, "i0_left": 1, "i0_right": 2})
        engine = Simulator(program, mode="native")
        try:
            engine.run_batch(rows)
        except SimulationError as error:
            assert "conflicting drivers" in str(error), error
        else:
            raise AssertionError(f"no conflict at {width} bits")
        # Past 4 limbs the tier refuses before any C is built.
        assert engine.uses_native() == (width <= 256), width

    from test_differential_engine import (
        _kid_program,
        _kid_stimulus,
        _pick_program,
    )
    guards = [(0, 0), (1, 0), (0, 1), (X, 0), (0, X)]
    wide = [{"a": rng.choice((X, rng.getrandbits(129))),
             "b": rng.getrandbits(129), "g": g, "h": h}
            for g, h in (rng.choice(guards) for _ in range(16))]
    for program, entry, rows in ((_kid_program(), "Top", _kid_stimulus()),
                                 (_kid_program(), "Kid", _kid_stimulus()),
                                 (_pick_program(129), "Top", wide)):
        engine = Simulator(program, entry, mode="native")
        engine.run_batch(rows)
        engine.run_lanes([rows, rows[:3]])
        assert engine.uses_native(), engine.native_fallback_reason
    # Both drivers of the child's 129-bit port active with different
    # values: the child aborts the batch on the conflict path.
    try:
        Simulator(_pick_program(129), "Top", mode="native").run_batch(
            wide + [{"g": 1, "h": 1, "a": 1 << 128, "b": 2}])
    except SimulationError as error:
        assert "conflicting drivers" in str(error), error
    else:
        raise AssertionError("no conflict in the 129-bit child")

    harness = harness_for(addmult_program(), "AddMult", mode="native")
    engine = Simulator(harness.calyx, "AddMult", mode="native")
    names = harness.calyx.get("AddMult").input_names()
    for lengths in ([12], [12, 5, 0], [lane % 13 for lane in range(64)]):
        # Each lane is a prefix of a well-formed pipelined schedule.
        streams = [harness._schedule(random_transactions(
                       harness, 8, seed=lane))[0][:length]
                   for lane, length in enumerate(lengths)]
        cycles = max(lengths)
        engine.run_lane_columns(
            cycles, len(lengths), rows_to_columns(streams, names, cycles),
            lengths)
        assert engine.uses_native(), engine.native_fallback_reason

    for seed in (3, 5, 8):
        result = run_conformance(generate(seed))
        assert result.passed, (seed, result.divergences)
        assert result.coverage.native and result.coverage.native_lanes, (
            seed, result.coverage.native_fallback)


@needs_cc
@pytest.mark.parametrize("case", ["kernels", "canary"])
def test_generated_c_is_ubsan_clean_at_the_production_level(case, tmp_path):
    """The generated C runs free of undefined behaviour at the shipped
    optimisation level: a child process builds every kernel with
    ``-fsanitize=undefined -fno-sanitize-recover=all`` and the UBSan
    runtime preloaded, so the first report kills it.  The canary case
    shows such a report does reach the parent."""
    runtime = subprocess.run(
        [native_module.find_compiler(), "-print-file-name=libubsan.so"],
        capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip("the C compiler ships no libubsan.so")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, LD_PRELOAD=runtime,
               REPRO_STORE_DIR=str(tmp_path / "store"),
               PYTHONPATH=os.pathsep.join(
                   [str(here.parents[1] / "src"), str(here),
                    str(here.parent / "integration")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import test_native; "
         f"test_native._ubsan_child({case!r}, {str(tmp_path)!r})"],
        env=env, capture_output=True, text=True, timeout=600)
    if case == "canary":
        assert proc.returncode != 0, proc.stderr[-2000:]
        assert "runtime error" in proc.stderr, proc.stderr[-2000:]
    else:
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "runtime error:" not in proc.stderr, proc.stderr[-2000:]


class TestReviewRegressions:
    @needs_cc
    def test_out_of_range_stimulus_mid_column_stays_aligned(self):
        """``array.extend`` appends element-by-element before raising, so
        an out-of-range value mid-column must roll back the in-range
        prefix — otherwise the extra entries shift that port's tail and
        every later port's column, silently corrupting the batch."""
        program = _single_cell_program("Add", (8,),
                                       {"left": 8, "right": 8})
        stimulus = [
            {"i_left": 5, "i_right": 1},
            {"i_left": 2 ** 70 + 3, "i_right": 2},  # raises OverflowError
            {"i_left": -1, "i_right": 4},           # negative does too
            {"i_left": 7, "i_right": 8},
        ]
        native = Simulator(program, mode="native")
        trace = native.run_batch(stimulus)
        assert native.uses_native(), native.native_fallback_reason
        _same_traces(Simulator(program, mode="auto").run_batch(stimulus),
                     trace)

    @needs_cc
    @pytest.mark.parametrize("typecode", ["I", "L", "q"])
    def test_value_columns_of_any_integer_array_type(self, typecode):
        """``run_columns`` takes value columns of any integer ``array``
        type on every tier.  Only an ``array('Q')`` is copied whole into
        the C buffers (``+=`` of another typecode raises); the rest are
        walked, and a negative entry truncates like any other
        out-of-range stimulus."""
        harness = harness_for(addmult_program(), "AddMult")
        rows, _ = harness._schedule(random_transactions(harness, 6, seed=3))
        names = harness.calyx.get("AddMult").input_names()
        columns = {name: (array(typecode, values), xflags)
                   for name, (values, xflags)
                   in rows_to_columns([rows], names, len(rows)).items()}
        if typecode == "q":
            values, xflags = columns["a"]
            window = xflags.index(0)
            values[window] = -5
        outputs = []
        for mode in ("compiled", "native"):
            simulator = Simulator(harness.calyx, "AddMult", mode=mode)
            out = simulator.run_columns(len(rows), columns)
            outputs.append({name: (list(values), bytes(xflags))
                            for name, (values, xflags) in out.items()})
        assert simulator.uses_native(), simulator.native_fallback_reason
        assert outputs[0] == outputs[1]
        assert any(x == 0 for x in outputs[1]["out"][1])

    @needs_cc
    @pytest.mark.parametrize("wh,wl", [(0, 8), (0, 64), (8, 0)])
    def test_concat_degenerate_field_widths(self, wh, wl):
        """``wh == 0`` (and its ``wl == 64`` extreme) must not emit
        ``<< 64`` on ``uint64_t`` — that is UB in C."""
        widths = {"hi": max(wh, 1), "lo": max(wl, 1)}
        program = _single_cell_program("Concat", (wh, wl), widths)
        rng = random.Random(wh * 100 + wl)
        stimulus = _stimulus(rng, widths, 16)
        native = Simulator(program, mode="native")
        trace = native.run_batch(stimulus)
        assert native.uses_native(), native.native_fallback_reason
        _same_traces(Simulator(program, mode="auto").run_batch(stimulus),
                     trace)

    def test_compiler_probe_reprobes_when_repro_cc_changes(
            self, monkeypatch):
        monkeypatch.setattr(native_module, "_COMPILER_CACHE", {})
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc-for-test")
        assert native_module.find_compiler() is None
        monkeypatch.setenv("REPRO_CC", "cc-b-for-test")
        monkeypatch.setattr(
            native_module.shutil, "which",
            lambda name: "/fake/cc-b" if name == "cc-b-for-test" else None)
        assert native_module.find_compiler() == "/fake/cc-b"
        clear_native_cache()
        assert native_module._COMPILER_CACHE == {}

    @pytest.mark.skipif(not hasattr(os, "getuid"), reason="posix only")
    def test_default_cache_dir_is_per_user_and_private(self):
        directory = native_module._cache_dir()
        assert str(os.getuid()) in directory.name
        assert directory.stat().st_mode & 0o077 == 0


class TestDigestCaches:
    def test_lru_evicts_the_least_recently_used_and_counts(self):
        cache = DigestCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" is now least recently used
        assert "b" in cache and cache.hits == 1  # a probe counts nothing
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.get("b") is None
        assert (cache.hits, cache.misses, cache.evicted) == (1, 3, 1)
        assert cache.stats() == {"hits": 1, "misses": 3, "evicted": 1,
                                 "entries": 2, "limit": 2}
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.evicted) == (0, 0, 0)

    def test_kernel_cache_limit_is_enforced(self, monkeypatch):
        from repro.sim import codegen

        monkeypatch.setattr(codegen._CACHE, "bound", 1)
        codegen.clear_kernel_cache()
        try:
            for name in ("Add", "Sub", "Xor"):
                program = _single_cell_program(name, (8,),
                                               {"left": 8, "right": 8})
                Simulator(program, mode="compiled").run_batch(
                    [{"i_left": 1, "i_right": 2}])
                assert len(codegen._CACHE) <= 1
            assert codegen.kernel_cache_stats()["evicted"] == 2
        finally:
            codegen.clear_kernel_cache()
