"""Unit tests for the native C execution tier (:mod:`repro.sim.native`).

The per-primitive behavioural sweep lives in ``test_width_boundaries.py``
(which runs every boundary width through all four tiers); this module pins
down the tier's *plumbing*: conflict-error parity, every fallback reason
(black-box primitive, over-wide value, missing compiler), the digest-keyed
in-memory + on-disk cache, and the ``REPRO_KERNEL_CACHE`` /
``REPRO_COMPILE_CACHE`` environment knobs that size the caches.
"""

import os
import random
from collections import OrderedDict

import pytest

from repro.calyx.ir import (
    Assignment,
    CalyxComponent,
    CalyxProgram,
    CellPort,
    Guard,
    PortSpec,
)
from repro.core.errors import SimulationError
from repro.sim import Simulator, clear_native_cache, compiler_available
from repro.sim import native as native_module
from repro.sim.codegen import kernel_cache_limit, set_kernel_cache_limit

from test_codegen import _same_traces, _single_cell_program, _stimulus

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
