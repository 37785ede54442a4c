"""Unit tests for the native C execution tier (:mod:`repro.sim.native`).

The per-primitive behavioural sweep lives in ``test_width_boundaries.py``
(which runs every boundary width through all four tiers); this module pins
down the tier's *plumbing*: conflict-error parity, every fallback reason
(black-box primitive, over-wide value, missing compiler), the digest-keyed
in-memory + on-disk cache and its ABI-versioned keys, the session's one
``"native"`` stage, warning-clean generated C, and the
``REPRO_KERNEL_CACHE`` / ``REPRO_COMPILE_CACHE`` environment knobs that
size the caches.
"""

import os
import random
import subprocess
from collections import OrderedDict

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
from repro.conformance.generator import generate
from repro.core.errors import SimulationError
from repro.core.session import CompilationSession
from repro.core.store import ArtifactStore
from repro.designs import addmult_program, conv2d_base_program
from repro.sim import Simulator, clear_native_cache, compiler_available
from repro.sim import create_primitive
from repro.sim import native as native_module
from repro.sim.codegen import (
    kernel_cache_limit,
    netlist_digest,
    set_kernel_cache_limit,
)

from test_codegen import _same_traces, _single_cell_program, _stimulus
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
        monkeypatch.setattr(native_module, "_CACHE", OrderedDict())
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
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
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


    def test_object_under_the_previous_abi_key_is_rebuilt(self, tmp_path,
                                                          monkeypatch):
        """A ``.so`` built for ABI 3 (whose ``k_run_lanes`` took nine
        arguments) must never be called with the current argtypes: the ABI
        is part of the store key, so the old object is not even looked
        up."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "store"))
        clear_native_cache()
        engine = Simulator(_guarded_program(), mode="native")
        # The ABI-3 symbol set; its lane entry reports a bogus conflict.
        stale_c = tmp_path / "stale.c"
        stale_c.write_text(
            "#include <stdint.h>\n"
            "int64_t k_state_bytes(void) { return 64; }\n"
            "void k_reset(void* p) { (void)p; }\n"
            "void k_reset_lanes(void* p, int64_t nl) { (void)p; (void)nl; }\n"
            "void k_peek(void* p, int64_t s, int64_t w, uint64_t* v,\n"
            "            uint8_t* x) { (void)p; (void)s; (void)w;\n"
            "                          *v = 0; *x = 1; }\n"
            "int64_t k_run_lanes(void* p, int64_t nl, int64_t ncy,\n"
            "    const uint64_t* iv, const uint8_t* ix, uint64_t* ov,\n"
            "    uint8_t* ox, int64_t* eplan, int64_t* elane) {\n"
            "    (void)p; (void)nl; (void)ncy; (void)iv; (void)ix;\n"
            "    (void)ov; (void)ox; eplan[0] = 0; elane[0] = 0; return 0;\n"
            "}\n")
        stale_so = tmp_path / "stale.so"
        subprocess.run([native_module.find_compiler(), "-shared", "-fPIC",
                        "-o", str(stale_so), str(stale_c)], check=True)
        digest = netlist_digest(engine)
        assert ArtifactStore(tmp_path / "store").put_file(
            "native", f"native_3_{digest[:32]}", stale_so)

        program, cached, _ = native_module.native_for(engine)
        assert not cached and not program.disk_hit
        with pytest.raises(SimulationError) as info:
            engine.run_batch(TestConflictParity.CONFLICT)
        assert engine.uses_native(), engine.native_fallback_reason
        compiled = Simulator(_guarded_program(), mode="compiled")
        with pytest.raises(SimulationError) as want:
            compiled.run_batch(TestConflictParity.CONFLICT)
        assert str(info.value) == str(want.value)
        assert "(values ['3', '4'])" in str(info.value)
        clear_native_cache()


@needs_cc
def test_native_session_records_one_native_stage_per_entrypoint():
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
    stages = [(timing.stage, timing.target) for timing in session.timings
              if timing.stage.startswith("native")]
    assert stages == [("native", "first"), ("native", "second")]


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
    (production builds keep their plain ``-O2`` flags)."""
    program, entrypoint = _WARNING_DESIGNS[design]()
    engine = Simulator(program, entrypoint, mode="native")
    source = native_module.generate_c_source(engine)[0]
    c_path = tmp_path / f"{design}.c"
    c_path.write_text(source)
    proc = subprocess.run(
        [native_module.find_compiler(), "-O2", "-Wall", "-Wextra", "-Werror",
         "-shared", "-fPIC", "-o", str(tmp_path / f"{design}.so"),
         str(c_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[:2000]


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
    def test_default_cache_dir_is_per_user_and_private(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_CACHE_DIR", raising=False)
        directory = native_module._cache_dir()
        assert str(os.getuid()) in directory.name
        assert directory.stat().st_mode & 0o077 == 0


class TestCacheLimitKnobs:
    def test_kernel_cache_env_var_sets_the_limit(self, monkeypatch):
        set_kernel_cache_limit(None)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "7")
        assert kernel_cache_limit() == 7

    def test_kernel_cache_setter_overrides_the_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "7")
        set_kernel_cache_limit(3)
        try:
            assert kernel_cache_limit() == 3
        finally:
            set_kernel_cache_limit(None)

    def test_kernel_cache_env_var_garbage_falls_back_to_default(
            self, monkeypatch):
        set_kernel_cache_limit(None)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "not-a-number")
        assert kernel_cache_limit() == 256

    def test_kernel_cache_limit_is_enforced(self, monkeypatch):
        from repro.sim.codegen import _CACHE, clear_kernel_cache

        monkeypatch.setenv("REPRO_KERNEL_CACHE", "1")
        set_kernel_cache_limit(None)
        clear_kernel_cache()
        try:
            for name in ("Add", "Sub", "Xor"):
                program = _single_cell_program(name, (8,),
                                               {"left": 8, "right": 8})
                Simulator(program, mode="compiled").run_batch(
                    [{"i_left": 1, "i_right": 2}])
                assert len(_CACHE) <= 1
        finally:
            clear_kernel_cache()

    def test_compile_cache_env_var_sets_the_limit(self, monkeypatch):
        from repro.core.queries import (
            compile_cache_limit,
            set_compile_cache_limit,
        )

        set_compile_cache_limit(None)
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "11")
        try:
            assert compile_cache_limit() == 11
            monkeypatch.setenv("REPRO_COMPILE_CACHE", "garbage")
            assert compile_cache_limit() == 1024
            set_compile_cache_limit(5)
            assert compile_cache_limit() == 5
        finally:
            set_compile_cache_limit(None)
