"""Unit tests for the kernel codegen tier (:mod:`repro.sim.codegen`).

The core property: for every primitive kind the registry can produce, a
netlist instantiating it must behave identically under the scheduled
interpreter and the generated kernel — same values, same X planes, cycle by
cycle through registered state — for scalar runs and for compiled-mode lane
batches (one scalar kernel run per stream).  On top of the per-primitive
sweep, the driver-group folding, the conflict error path, the digest-keyed
cache with its disk spill tier and the automatic interpreter fallback are
pinned down directly.
"""

import json
import random
import sys

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
from repro.core.errors import SimulationError
from repro.sim import (
    Simulator,
    X,
    clear_kernel_cache,
    create_primitive,
    is_x,
    kernel_cache_stats,
    netlist_digest,
)

#: (primitive, params, {input port: width}) — the same behavioural matrix
#: the lane tests sweep, reused against the codegen tier.
CASES = [
    ("Add", (8,), {"left": 8, "right": 8}),
    ("Add", (64,), {"left": 64, "right": 64}),
    ("FlexAdd", (16,), {"left": 16, "right": 16}),
    ("Sub", (8,), {"left": 8, "right": 8}),
    ("Sub", (64,), {"left": 64, "right": 64}),
    ("And", (8,), {"left": 8, "right": 8}),
    ("Or", (8,), {"left": 8, "right": 8}),
    ("Xor", (8,), {"left": 8, "right": 8}),
    ("MultComb", (16,), {"left": 16, "right": 16}),
    ("MultComb", (64,), {"left": 64, "right": 64}),
    ("Eq", (8,), {"left": 8, "right": 8}),
    ("Neq", (8,), {"left": 8, "right": 8}),
    ("Lt", (8,), {"left": 8, "right": 8}),
    ("Lt", (64,), {"left": 64, "right": 64}),
    ("Gt", (8,), {"left": 8, "right": 8}),
    ("Le", (8,), {"left": 8, "right": 8}),
    ("Ge", (64,), {"left": 64, "right": 64}),
    ("Not", (8,), {"in": 8}),
    ("Mux", (8,), {"sel": 1, "in1": 8, "in0": 8}),
    ("Slice", (8, 6, 2), {"in": 8}),
    ("Concat", (4, 4), {"hi": 4, "lo": 4}),
    ("ShiftLeft", (8, 3), {"in": 8}),
    ("ShiftRight", (8, 3), {"in": 8}),
    ("ShiftLeft", (8, 9), {"in": 8}),
    ("Const", (8, 42), {}),
    ("Mult", (16,), {"go": 1, "left": 16, "right": 16}),
    ("FastMult", (16,), {"go": 1, "left": 16, "right": 16}),
    ("PipelinedMult", (16,), {"go": 1, "left": 16, "right": 16}),
    ("Reg", (8,), {"en": 1, "in": 8}),
    ("Register", (8,), {"en": 1, "in": 8}),
    ("Delay", (8,), {"in": 8}),
    ("Prev", (8, 1), {"en": 1, "in": 8}),
    ("Prev", (8, 0), {"en": 1, "in": 8}),
    ("ContPrev", (8, 1), {"in": 8}),
    ("DspMac", (16,), {"ce": 1, "a": 16, "b": 16, "pin": 16}),
    ("fsm", (4,), {"go": 1}),
]

CYCLES = 12
LANES = 5


def _single_cell_program(name, params, widths):
    """A one-cell netlist: every model input fed straight from a component
    input, every model output exposed as a component output."""
    model = create_primitive(name, params)
    width_hint = max([model.width_hint] + list(widths.values()) + [1])
    component = CalyxComponent("top")
    for port, width in widths.items():
        component.inputs.append(PortSpec(f"i_{port}", width))
    component.add_cell(Cell("u", name, tuple(params)))
    for port in widths:
        component.add_wire(
            Assignment(CellPort("u", port), CellPort(None, f"i_{port}")))
    for port in model.outputs:
        component.outputs.append(PortSpec(f"o_{port}", width_hint))
        component.add_wire(
            Assignment(CellPort(None, f"o_{port}"), CellPort("u", port)))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


def _random_value(rng, width, x_rate=0.3):
    if rng.random() < x_rate:
        return X
    return rng.getrandbits(width)


def _same_traces(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert set(a) == set(b)
        for port in a:
            assert is_x(a[port]) == is_x(b[port]), (port, a[port], b[port])
            if not is_x(a[port]):
                assert a[port] == b[port], (port, a[port], b[port])


def _stimulus(rng, widths, cycles):
    return [{f"i_{port}": _random_value(rng, width)
             for port, width in widths.items()} for _ in range(cycles)]


@pytest.mark.parametrize("name,params,widths", CASES,
                         ids=[f"{c[0]}{list(c[1])}" for c in CASES])
def test_scalar_kernel_matches_interpreter(name, params, widths):
    rng = random.Random(hash((name, params)) & 0xFFFF)
    program = _single_cell_program(name, params, widths)
    stimulus = _stimulus(rng, widths, CYCLES)
    reference = Simulator(program, mode="auto").run_batch(stimulus)
    compiled = Simulator(program, mode="compiled")
    trace = compiled.run_batch(stimulus)
    assert compiled.uses_kernel(), compiled.kernel_fallback_reason
    _same_traces(reference, trace)


@pytest.mark.parametrize("name,params,widths", CASES,
                         ids=[f"{c[0]}{list(c[1])}" for c in CASES])
def test_packed_kernel_matches_interpreter(name, params, widths):
    """Compiled-mode lane batches run the scalar kernel once per stream,
    each from a fresh reset: every lane must match a scalar interpreter
    run of its stream."""
    rng = random.Random(hash((name, params, "packed")) & 0xFFFF)
    program = _single_cell_program(name, params, widths)
    streams = [_stimulus(rng, widths, CYCLES) for _ in range(LANES)]
    compiled = Simulator(program, mode="compiled")
    lanes = compiled.run_lanes(streams)
    assert compiled.uses_kernel(), compiled.kernel_fallback_reason
    scalar = Simulator(program, mode="auto")
    for stream, trace in zip(streams, lanes):
        scalar.reset()
        _same_traces(scalar.run_batch(stream), trace)


class TestDriverGroups:
    """Folded driver groups: guard chains, multi-driven ports, conflicts."""

    def _guarded_program(self):
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

    def test_multi_driven_port_matches_interpreter(self):
        rng = random.Random(9)
        program = self._guarded_program()
        stimulus = []
        for _ in range(60):
            g = rng.choice([0, 1, X])
            # Keep the drivers agreeing when both guards can be active.
            a = rng.choice([rng.getrandbits(8), X])
            h = rng.choice([0, X]) if (g is X or g) else rng.choice([0, 1, X])
            stimulus.append({"g": g, "h": h, "a": a,
                             "b": a if not is_x(a) else rng.getrandbits(8)})
        reference = Simulator(program, mode="auto").run_batch(stimulus)
        compiled = Simulator(program, mode="compiled")
        trace = compiled.run_batch(stimulus)
        assert compiled.uses_kernel()
        _same_traces(reference, trace)
        lanes = Simulator(program, mode="compiled").run_lanes(
            [stimulus[:20], stimulus[20:40], stimulus[40:]])
        scalar = Simulator(program, mode="auto")
        for stream, lane_trace in zip(
                [stimulus[:20], stimulus[20:40], stimulus[40:]], lanes):
            scalar.reset()
            _same_traces(scalar.run_batch(stream), lane_trace)

    def test_conflicting_drivers_raise_identically(self):
        program = self._guarded_program()
        stimulus = [{"g": 1, "h": 1, "a": 3, "b": 4}]
        errors = {}
        for mode in ("auto", "compiled"):
            with pytest.raises(SimulationError) as excinfo:
                Simulator(program, mode=mode).run_batch(stimulus)
            errors[mode] = str(excinfo.value)
        assert errors["auto"] == errors["compiled"]
        assert "conflicting drivers" in errors["compiled"]

    def test_packed_conflict_reports_the_lane(self):
        program = self._guarded_program()
        good = {"g": 1, "h": 0, "a": 3, "b": 4}
        bad = {"g": 1, "h": 1, "a": 3, "b": 4}
        with pytest.raises(SimulationError, match=r"cycle 0 \(lane 1\)$"):
            Simulator(program, mode="compiled").run_lanes(
                [[good], [bad]])


class TestFallbackAndCache:
    def test_cyclic_netlist_falls_back_to_the_interpreter(self):
        component = CalyxComponent(
            "loopy", inputs=[PortSpec("g", 1)], outputs=[PortSpec("o", 8)])
        component.add_wire(Assignment(CellPort(None, "o"), 5))
        component.add_wire(Assignment(CellPort(None, "o"), 7,
                                      Guard((CellPort(None, "o"),))))
        program = CalyxProgram(entrypoint="loopy")
        program.add(component)
        compiled = Simulator(program, mode="compiled")
        trace = compiled.run_batch([{"g": 1}, {"g": 0}])
        assert not compiled.uses_kernel()
        assert "self-loop" in compiled.kernel_fallback_reason
        _same_traces(Simulator(program, mode="fixpoint").run_batch(
            [{"g": 1}, {"g": 0}]), trace)

    def test_kernel_cache_hits_by_netlist_digest(self):
        clear_kernel_cache()
        program = _single_cell_program("Add", (8,),
                                       {"left": 8, "right": 8})
        first = Simulator(program, mode="compiled")
        first.run_batch([{"i_left": 1, "i_right": 2}])
        after_first = kernel_cache_stats()
        second = Simulator(program, mode="compiled")
        second.run_batch([{"i_left": 3, "i_right": 4}])
        after_second = kernel_cache_stats()
        assert after_first["misses"] == 1
        assert after_second["hits"] == after_first["hits"] + 1
        assert after_second["misses"] == after_first["misses"]
        assert netlist_digest(first) == netlist_digest(second)

    def test_generated_source_holds_only_the_scalar_kernel(self):
        """A chunk holds one component's scalar kernel, whatever its role:
        ``Leaf`` simulated once as the top and once as a child hits one
        cache entry with one source text, which names nothing positional.
        The top's entry is generated apart from the chunk."""
        from repro.sim import codegen

        clear_kernel_cache()
        program = _parent_of_two(8)
        leaf = Simulator(program, "Leaf", mode="compiled")
        as_top, _ = codegen.kernel_for(leaf)
        before = kernel_cache_stats()
        top = Simulator(program, "Top", mode="compiled")
        as_child, _ = codegen.kernel_for(top)
        after = kernel_cache_stats()
        # Leaf hits; Sib and Top miss; three chunks in all.
        assert (after["hits"] - before["hits"],
                after["misses"] - before["misses"]) == (1, 2)
        assert after["entries"] == 3
        chunk, entry = as_top.sources
        assert as_child.sources[0] == chunk
        for source in as_child.sources[:-1]:
            assert source.count("def link(") == 1
            assert "make_top" not in source
            assert "make_c" not in source and "INIT_c" not in source
        header = "def make_top(segments, ticks, resets, s):"
        assert entry.startswith(header)
        assert as_child.sources[-1].startswith(header)
        assert leaf.step({"a": 0x0F}) == {"o": 0xF0}
        assert top.step({"a": 0x0F}) == {"o": 0xF0, "p": 0xF0}

    def test_stale_spill_envelope_is_ignored_and_rebuilt(self, tmp_path):
        """Generated kernels live only in memory: an envelope planted under
        the former on-disk spill key is never read, the kernel is rebuilt
        from the netlist, and the build writes nothing to the store."""
        from repro.core.store import (
            ArtifactStore,
            reset_default_store,
            set_default_store,
        )
        from repro.sim import codegen

        program = _single_cell_program("Add", (8,),
                                       {"left": 8, "right": 8})
        engine = Simulator(program, mode="compiled")
        digest = netlist_digest(engine)
        stale = json.dumps({
            "v": 2, "source": "raise AssertionError('stale kernel served')",
            "outputs": ["o_out"], "slots": [], "init": {}})
        store = ArtifactStore(tmp_path)
        assert store.put_bytes("kernel", f"kernel_2_{digest[:32]}",
                               stale.encode())
        token = set_default_store(store)
        try:
            clear_kernel_cache()
            _, cached = codegen.kernel_for(engine)
            assert not cached
            assert engine.run_batch(
                [{"i_left": 1, "i_right": 2}])[0]["o_out"] == 3
            assert store.stats["hits"] == store.stats["misses"] == 0
            assert store.stats["writes"] == 1  # the planted envelope only
            assert store.entry_count() == 1
        finally:
            reset_default_store(token)
            clear_kernel_cache()

    def test_distinct_netlists_have_distinct_digests(self):
        add = Simulator(_single_cell_program("Add", (8,),
                                             {"left": 8, "right": 8}),
                        mode="compiled")
        sub = Simulator(_single_cell_program("Sub", (8,),
                                             {"left": 8, "right": 8}),
                        mode="compiled")
        assert netlist_digest(add) != netlist_digest(sub)

    def test_registry_override_misses_the_kernel_cache(self):
        """Re-registering a stdlib name changes the model class, so the
        digest must change too — a cached kernel with the old semantics
        inlined must not be reused (semantics never fork)."""
        from repro.sim import register_primitive
        from repro.sim.primitives import PrimitiveModel, _FACTORIES

        program = _single_cell_program("Xor", (8,),
                                       {"left": 8, "right": 8})
        stimulus = [{"i_left": 3, "i_right": 5}]
        assert Simulator(program, mode="compiled").run_batch(
            stimulus)[0]["o_out"] == 3 ^ 5

        class NandXor(PrimitiveModel):
            inputs = ("left", "right")
            outputs = ("out",)

            def combinational(self, inputs):
                a = inputs.get("left", X)
                b = inputs.get("right", X)
                if is_x(a) or is_x(b):
                    return {"out": X}
                return {"out": ~(a & b) & 0xFF}

        original = _FACTORIES["Xor"]
        try:
            register_primitive("Xor",
                               lambda params: NandXor("Xor", params))
            fixpoint = Simulator(program, mode="fixpoint").run_batch(stimulus)
            auto = Simulator(program, mode="auto")
            assert type(auto._plan.prim_nodes[0].model) is NandXor
            assert auto.run_batch(stimulus) == fixpoint
            compiled = Simulator(program, mode="compiled").run_batch(stimulus)
            assert compiled == fixpoint
            assert compiled[0]["o_out"] == ~(3 & 5) & 0xFF
        finally:
            _FACTORIES["Xor"] = original

    def test_black_box_primitive_calls_back_into_its_model(self):
        """Substrate-registered primitives without an inlinable template run
        through their interpreter model inside the kernel."""
        import repro.generators.reticle.dsp  # noqa: F401 — registers Tdot

        rng = random.Random(3)
        widths = {p: 8 for p in ("a0", "b0", "a1", "b1", "a2", "b2", "c")}
        program = _single_cell_program("Tdot", (8,), widths)
        stimulus = _stimulus(rng, widths, 10)
        reference = Simulator(program, mode="auto").run_batch(stimulus)
        compiled = Simulator(program, mode="compiled")
        trace = compiled.run_batch(stimulus)
        assert compiled.uses_kernel(), compiled.kernel_fallback_reason
        _same_traces(reference, trace)
        streams = [_stimulus(rng, widths, 6) for _ in range(3)]
        lanes = Simulator(program, mode="compiled").run_lanes(streams)
        scalar = Simulator(program, mode="auto")
        for stream, lane_trace in zip(streams, lanes):
            scalar.reset()
            _same_traces(scalar.run_batch(stream), lane_trace)


def test_black_box_output_left_out_reads_x():
    """A black box whose ``combinational`` leaves an output out in some
    cycle leaves that port undriven there: it reads X in that cycle, in
    every tier, not the value of an earlier cycle."""
    from repro.sim import register_primitive
    from repro.sim.primitives import PrimitiveModel

    class Sometimes(PrimitiveModel):
        inputs = ("d",)
        outputs = ("q",)

        def combinational(self, inputs):
            d = inputs.get("d", X)
            return {} if d == 0 else {"q": d}

    register_primitive("SometimesBB",
                       lambda params: Sometimes("SometimesBB", params))
    program = _single_cell_program("SometimesBB", (8,), {"d": 8})
    stimulus = [{"i_d": 5}, {"i_d": 0}, {"i_d": 7}]
    for mode in ("fixpoint", "auto", "compiled"):
        simulator = Simulator(program, mode=mode)
        trace = [row["o_q"] for row in simulator.run_batch(stimulus)]
        assert trace[0] == 5 and is_x(trace[1]) and trace[2] == 7, mode
    assert simulator.uses_kernel(), simulator.kernel_fallback_reason


def _inverter(name, width):
    """``o = ~a`` over 8 bits, ``o`` declared ``width`` bits wide."""
    component = CalyxComponent(name, inputs=[PortSpec("a", 8)],
                               outputs=[PortSpec("o", width)])
    component.add_cell(Cell("u", "Not", (8,)))
    component.add_wire(Assignment(CellPort("u", "in"), CellPort(None, "a")))
    component.add_wire(Assignment(CellPort(None, "o"), CellPort("u", "out")))
    return component


def _parent_of_two(leaf_width):
    """``Top`` instantiating ``Leaf`` (output ``leaf_width`` bits wide) and
    an unrelated ``Sib``; ``Top``'s own text never mentions the width."""
    top = CalyxComponent("Top", inputs=[PortSpec("a", 8)],
                         outputs=[PortSpec("o", 8), PortSpec("p", 8)])
    top.add_cell(Cell("L", "Leaf"))
    top.add_cell(Cell("S", "Sib"))
    for cell, out in (("L", "o"), ("S", "p")):
        top.add_wire(Assignment(CellPort(cell, "a"), CellPort(None, "a")))
        top.add_wire(Assignment(CellPort(None, out), CellPort(cell, "o")))
    program = CalyxProgram(entrypoint="Top")
    for component in (_inverter("Leaf", leaf_width), _inverter("Sib", 8),
                      top):
        program.add(component)
    return program


def _cache_counts():
    from repro.sim.engine import _PLANS

    return kernel_cache_stats(), _PLANS.stats()


def _added(before, after):
    """``(misses, hits)`` added to the chunk and the plan cache."""
    return tuple((later["misses"] - earlier["misses"],
                  later["hits"] - earlier["hits"])
                 for earlier, later in zip(before, after))


class TestModularCache:
    """Plans and chunks are keyed by a component's own text and its
    children's interfaces, never their bodies."""

    def test_leaf_body_edit_misses_one_chunk_and_one_plan(self):
        from repro.core.session import CompilationSession
        from repro.evaluation.compile_time import (
            chain_program,
            edit_chain_leaf,
        )
        from repro.harness import fuzz_against_golden, harness_for

        def fuzz(salt):
            def golden(tx):
                a, b = tx["a"], tx["b"]
                return {"out": ((((a + b) & 0xFFFF) ^ salt) + 7 * b)
                        & 0xFFFF}

            harness = harness_for(program, entry, session=session)
            assert fuzz_against_golden(harness, golden, count=16).passed
            assert harness._simulator.prepare()["kernel"]

        clear_kernel_cache()
        program, entry = chain_program(8)
        session = CompilationSession(program)
        fuzz(0)
        before = _cache_counts()
        edit_chain_leaf(program, 0x5A5A)
        fuzz(0x5A5A)
        assert _added(before, _cache_counts()) == ((1, 7), (1, 7))

    def test_child_interface_change_misses_its_parent(self):
        clear_kernel_cache()
        Simulator(_parent_of_two(8), mode="compiled").prepare()
        before = _cache_counts()
        wider = Simulator(_parent_of_two(16), mode="compiled")
        assert wider.prepare()["kernel"]
        # Leaf's text and Top's key change; Sib hits.
        assert _added(before, _cache_counts()) == ((2, 1), (2, 1))
        assert wider._plan.text == str(_parent_of_two(8).get("Top"))
        assert wider.step({"a": 0x0F}) == {"o": 0xF0, "p": 0xF0}

    def test_netlist_digest_keeps_its_formula(self):
        """The native ``.so`` store is keyed by this digest: the name, the
        printed components children first and each primitive's model
        class, exactly as before plans existed."""
        import hashlib

        from repro.conformance import generate
        from repro.core.session import CompilationSession
        from repro.evaluation.compile_time import chain_program

        def reference(engine):
            parts, seen = [engine.component.name], set()

            def walk(node):
                if node.component.name in seen:
                    return
                seen.add(node.component.name)
                for child in node._children.values():
                    walk(child)
                parts.append(str(node.component))
                for prim in node._prim_nodes:
                    kind = type(prim.model)
                    parts.append(f"{prim.cell}:{kind.__module__}."
                                 f"{kind.__qualname__}")

            walk(engine)
            return hashlib.sha256("\n\n".join(parts).encode()).hexdigest()

        program, entry = chain_program(16)
        generated = generate(4)
        for calyx, name in (
                (CompilationSession(program).calyx(entry), entry),
                (CompilationSession(generated.program).calyx(
                    generated.spec.name), generated.spec.name)):
            # The reference walks an interpreter engine's children; a
            # native engine holds plans only.
            assert netlist_digest(Simulator(calyx, name, mode="native")) \
                == reference(Simulator(calyx, name))


def _mangled_alike_program():
    """``Top`` whose child cells ``p.q`` (a ``Plus1``) and ``p_q`` (a
    ``Plus100``) differ only where an identifier cannot hold the name."""
    def plus(name, addend):
        component = CalyxComponent(name, inputs=[PortSpec("x", 8)],
                                   outputs=[PortSpec("y", 8)])
        component.add_cell(Cell("K", "Const", (8, addend)))
        component.add_cell(Cell("A", "Add", (8,)))
        component.add_wire(Assignment(CellPort("A", "left"),
                                      CellPort(None, "x")))
        component.add_wire(Assignment(CellPort("A", "right"),
                                      CellPort("K", "out")))
        component.add_wire(Assignment(CellPort(None, "y"),
                                      CellPort("A", "out")))
        return component

    top = CalyxComponent("Top", inputs=[PortSpec("x", 8)],
                         outputs=[PortSpec("y1", 8), PortSpec("y2", 8)])
    top.add_cell(Cell("p.q", "Plus1"))
    top.add_cell(Cell("p_q", "Plus100"))
    for cell, out in (("p.q", "y1"), ("p_q", "y2")):
        top.add_wire(Assignment(CellPort(cell, "x"), CellPort(None, "x")))
        top.add_wire(Assignment(CellPort(None, out), CellPort(cell, "y")))
    program = CalyxProgram(entrypoint="Top")
    for component in (plus("Plus1", 1), plus("Plus100", 100), top):
        program.add(component)
    return program


#: ``netlist_digest`` of :func:`_mangled_alike_program`, as computed before
#: cell identifiers carried the cell's position.
MANGLED_ALIKE_DIGEST = (
    "232daa100a1807738f26aea008c1e366f9342a117c27a43bd8479bf089a9f591")


class TestCellIdentifiers:
    def test_cells_whose_names_mangle_alike_stay_apart(self):
        program = _mangled_alike_program()
        for mode in ("fixpoint", "auto", "compiled"):
            simulator = Simulator(program, mode=mode)
            assert simulator.step({"x": 5}) == {"y1": 6, "y2": 105}, mode
        assert simulator.uses_kernel(), simulator.kernel_fallback_reason
        assert netlist_digest(simulator) == MANGLED_ALIKE_DIGEST


def _chain_engine(depth):
    from repro.core.session import CompilationSession
    from repro.evaluation.compile_time import chain_program

    program, entry = chain_program(depth)
    return Simulator(CompilationSession(program).calyx(entry), entry,
                     mode="compiled")


def _registered_guard_program():
    """``Top`` driving a child ``Kid`` whose three data inputs reach its
    adder and xor only while ``R`` (``go`` registered) is high: one guard
    run of three single-driver groups, each read later in the same
    segment."""
    kid = CalyxComponent(
        "Kid", inputs=[PortSpec("go", 1), PortSpec("a", 8),
                       PortSpec("b", 8), PortSpec("c", 8)],
        outputs=[PortSpec("o", 8)])
    kid.add_cell(Cell("A", "Add", (8,)))
    kid.add_cell(Cell("X", "Xor", (8,)))
    kid.add_cell(Cell("R", "Reg", (1,)))
    kid.add_wire(Assignment(CellPort("R", "in"), CellPort(None, "go")))
    kid.add_wire(Assignment(CellPort("R", "en"), 1))
    held = Guard((CellPort("R", "out"),))
    for dst, src in ((("A", "left"), "a"), (("A", "right"), "b"),
                     (("X", "right"), "c")):
        kid.add_wire(Assignment(CellPort(*dst), CellPort(None, src), held))
    kid.add_wire(Assignment(CellPort("X", "left"), CellPort("A", "out")))
    kid.add_wire(Assignment(CellPort(None, "o"), CellPort("X", "out")))
    top = CalyxComponent(
        "Top", inputs=[PortSpec("go", 1), PortSpec("a", 8),
                       PortSpec("b", 8), PortSpec("c", 8)],
        outputs=[PortSpec("y", 8)])
    top.add_cell(Cell("k", "Kid"))
    for port in ("go", "a", "b", "c"):
        top.add_wire(Assignment(CellPort("k", port), CellPort(None, port)))
    top.add_wire(Assignment(CellPort(None, "y"), CellPort("k", "o")))
    program = CalyxProgram(entrypoint="Top")
    program.add(kid)
    program.add(top)
    return program


class TestSegmentedKernel:
    """A cycle runs the hierarchy's settle as one flat run of
    per-component segments."""

    @staticmethod
    def _deepest_frame_in_one_cycle(depth):
        """Python frames below the compiled columnar entry at its deepest,
        over one cycle."""
        engine = _chain_engine(depth)
        engine.step({"go": 1, "a": 1, "b": 2})
        assert engine.uses_kernel(), engine.kernel_fallback_reason
        run = engine._kernel.run_columns
        columns = {name: ([value], bytearray(1))
                   for name, value in (("go", 1), ("a", 3), ("b", 4))}
        level, deepest = -1, 0

        def profile(frame, event, arg):
            nonlocal level, deepest
            if event == "call":
                level += 1
                deepest = max(deepest, level)
            elif event == "return":
                level -= 1

        sys.setprofile(profile)
        try:
            outputs = run(1, columns)
        finally:
            sys.setprofile(None)
        assert outputs == {"out": ([(3 + 4 * depth) & 0xFFFF],
                                   bytearray(1))}
        return deepest

    def test_call_depth_does_not_grow_with_the_hierarchy(self):
        shallow = self._deepest_frame_in_one_cycle(2)
        deep = self._deepest_frame_in_one_cycle(64)
        assert deep == shallow == 1, (shallow, deep)

    def test_a_multi_driver_child_keeps_counting_cycles(self):
        """A stateless child whose port has two drivers keeps a tick, so
        its conflict message names the cycle the conflict happened in."""
        pair = CalyxComponent("Pair", inputs=[PortSpec("a", 8),
                                              PortSpec("b", 8)],
                              outputs=[PortSpec("o", 8)])
        for src in ("a", "b"):
            pair.add_wire(Assignment(CellPort(None, "o"),
                                     CellPort(None, src)))
        top = CalyxComponent("Top", inputs=[PortSpec("a", 8),
                                            PortSpec("b", 8)],
                             outputs=[PortSpec("o", 8)])
        top.add_cell(Cell("p", "Pair"))
        for port in ("a", "b"):
            top.add_wire(Assignment(CellPort("p", port),
                                    CellPort(None, port)))
        top.add_wire(Assignment(CellPort(None, "o"), CellPort("p", "o")))
        program = CalyxProgram(entrypoint="Top")
        program.add(pair)
        program.add(top)
        rows = [{"a": i, "b": i} for i in range(3)] + [{"a": 1, "b": 2}]
        for mode in ("fixpoint", "auto", "compiled"):
            with pytest.raises(SimulationError) as info:
                Simulator(program, mode=mode).run_batch(rows)
            assert str(info.value) == (
                "Pair: conflicting drivers for o in cycle 3: o = a, o = b "
                "(values ['1', '2'])"), mode

    def test_guard_run_in_a_child_reads_x_while_guard_is_low(self):
        program = _registered_guard_program()
        rng = random.Random(20)
        stimulus = [{"go": go, "a": rng.getrandbits(8),
                     "b": rng.getrandbits(8), "c": rng.getrandbits(8)}
                    for go in (1, 1, X, 0, 1, 0, 0, 1)]
        engines = {mode: Simulator(program, mode=mode)
                   for mode in ("fixpoint", "auto", "compiled")}
        traces = {mode: [] for mode in engines}
        for inputs in stimulus:
            for mode, engine in engines.items():
                traces[mode].append(engine.step(dict(inputs)))
            compiled = engines["compiled"]
            assert compiled.uses_kernel(), compiled.kernel_fallback_reason
            for cell, port in compiled._kernel._slot_map:
                if port.startswith("#"):  # register state, not a signal
                    continue
                want = engines["fixpoint"].peek(cell, port)
                for mode in ("auto", "compiled"):
                    got = engines[mode].peek(cell, port)
                    assert is_x(got) == is_x(want) and (
                        is_x(want) or got == want), (mode, cell, port, got)
        _same_traces(traces["fixpoint"], traces["auto"])
        _same_traces(traces["fixpoint"], traces["compiled"])
        # The guard is go one cycle late: cycles 1, 2 and 5 (guard 1) see
        # their own operands; every other cycle (guard X, 0 or, in cycle
        # 0, the register's X) reads X, cycles 6 and 7 after 1 included.
        for cycle, row in enumerate(traces["compiled"]):
            if cycle in (1, 2, 5):
                a, b, c = (stimulus[cycle][port] for port in "abc")
                assert row["y"] == ((a + b) & 0xFF) ^ c, cycle
            else:
                assert is_x(row["y"]), cycle


class TestEarlyBlackBoxReads:
    """A black box with restricted ``combinational_inputs`` can be
    scheduled *before* the driver of one of its inputs; the interpreter
    then reads X at that point, in the top and in every child, so the
    kernel must not const-preload such slots and clears them to X at the
    start of every settle."""

    @classmethod
    def setup_class(cls):
        from repro.sim import register_primitive
        from repro.sim.primitives import PrimitiveModel

        class Echo(PrimitiveModel):
            inputs = ("d",)
            outputs = ("q",)
            combinational_inputs = ()

            def combinational(self, inputs):
                return {"q": inputs.get("d", X)}

        register_primitive("EchoBB", lambda params: Echo("EchoBB", params))

    def _assert_compiled_matches_scheduled(self, program, stimulus):
        # The reference here is the *scheduled* engine, deliberately not
        # fixpoint: a model that reads an input its ``combinational_inputs``
        # does not declare (like this Echo) breaks the levelization
        # contract, and the sweep loop then re-evaluates it after the
        # driver settles while the schedule reads it once, early.  The
        # kernel compiles the scheduled tier, so that is the trace it must
        # reproduce bit for bit.
        reference = Simulator(program, mode="auto").run_batch(stimulus)
        _same_traces(reference,
                     Simulator(program, mode="compiled").run_batch(stimulus))
        lanes = Simulator(program, mode="compiled").run_lanes(
            [stimulus, stimulus])
        for lane_trace in lanes:
            _same_traces(reference, lane_trace)

    def test_const_driven_input_read_early_in_fresh_top(self):
        component = CalyxComponent(
            "top", inputs=[PortSpec("g", 1)],
            outputs=[PortSpec("o", 8), PortSpec("p", 8)])
        component.add_cell(Cell("E", "EchoBB", (8,)))
        component.add_cell(Cell("N", "Not", (8,)))
        component.add_wire(Assignment(CellPort("E", "d"), 42))
        component.add_wire(Assignment(CellPort("N", "in"),
                                      CellPort("E", "d")))
        component.add_wire(Assignment(CellPort(None, "o"),
                                      CellPort("N", "out")))
        component.add_wire(Assignment(CellPort(None, "p"),
                                      CellPort("E", "q")))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        stimulus = [{"g": 1}] * 3
        # The Not (a declared dependent) must still see the constant...
        trace = Simulator(program, mode="compiled").run_batch(stimulus)
        assert trace[0]["o"] == ~42 & 0xFF
        # ...while the early black-box read sees X, like the interpreter.
        assert is_x(trace[0]["p"])
        self._assert_compiled_matches_scheduled(program, stimulus)

    def test_const_driven_input_read_early_in_child(self):
        child = CalyxComponent(
            "kid", inputs=[PortSpec("g", 1)], outputs=[PortSpec("q", 8)])
        child.add_cell(Cell("E", "EchoBB", (8,)))
        child.add_wire(Assignment(CellPort("E", "d"), 42))
        child.add_wire(Assignment(CellPort(None, "q"), CellPort("E", "q")))
        outer = CalyxComponent(
            "outer", inputs=[PortSpec("g", 1)], outputs=[PortSpec("o", 8)])
        outer.add_cell(Cell("K", "kid"))
        outer.add_wire(Assignment(CellPort("K", "g"), CellPort(None, "g")))
        outer.add_wire(Assignment(CellPort(None, "o"), CellPort("K", "q")))
        program = CalyxProgram(entrypoint="outer")
        program.add(child)
        program.add(outer)
        stimulus = [{"g": 1}] * 3
        # The early read sees X in every cycle, as it does in a top.
        trace = Simulator(program, mode="compiled").run_batch(stimulus)
        assert all(is_x(row["o"]) for row in trace)
        self._assert_compiled_matches_scheduled(program, stimulus)

    def test_const_cell_read_early_is_not_preloaded(self):
        component = CalyxComponent(
            "top", inputs=[PortSpec("g", 1)], outputs=[PortSpec("o", 8)])
        component.add_cell(Cell("E", "EchoBB", (8,)))
        component.add_cell(Cell("C", "Const", (8, 99)))
        component.add_wire(Assignment(CellPort("E", "d"),
                                      CellPort("C", "out")))
        component.add_wire(Assignment(CellPort(None, "o"),
                                      CellPort("E", "q")))
        program = CalyxProgram(entrypoint="top")
        program.add(component)
        self._assert_compiled_matches_scheduled(program, [{"g": 1}] * 3)


class TestKernelEngineSurface:
    def test_step_outputs_and_peek_ride_the_kernel(self):
        program = _single_cell_program("Reg", (8,), {"en": 1, "in": 8})
        compiled = Simulator(program, mode="compiled")
        reference = Simulator(program, mode="auto")
        for inputs in ({"i_en": 1, "i_in": 9}, {"i_en": 0, "i_in": 5}):
            want = reference.step(dict(inputs))
            got = compiled.step(dict(inputs))
            assert compiled.uses_kernel()
            assert want == got == compiled.outputs()
            assert compiled.peek("u", "out") == reference.peek("u", "out")
        assert compiled.cycle == reference.cycle == 2

    def test_reset_returns_to_power_on_state(self):
        program = _single_cell_program("Reg", (8,), {"en": 1, "in": 8})
        compiled = Simulator(program, mode="compiled")
        compiled.step({"i_en": 1, "i_in": 9})
        assert compiled.step({"i_en": 0})["o_out"] == 9
        compiled.reset()
        assert compiled.cycle == 0
        assert is_x(compiled.step({"i_en": 0})["o_out"])

    def test_unknown_input_rejected_before_the_kernel_runs(self):
        program = _single_cell_program("Add", (8,),
                                       {"left": 8, "right": 8})
        compiled = Simulator(program, mode="compiled")
        with pytest.raises(SimulationError, match="unknown input"):
            compiled.run_batch([{"nope": 1}])

    def test_unknown_mode_rejected(self):
        program = _single_cell_program("Add", (8,),
                                       {"left": 8, "right": 8})
        with pytest.raises(SimulationError, match="unknown simulator mode"):
            Simulator(program, mode="jit")


class TestSessionKernelStage:
    def test_session_reports_kernel_stage_and_cache_hits(self):
        from repro.core.session import CompilationSession
        from repro.designs import addmult_program

        clear_kernel_cache()
        session = CompilationSession(addmult_program())
        first = session.simulator("AddMult", mode="compiled")
        assert first.uses_kernel()
        stats = session.cache_stats()
        assert stats["kernel"]["misses"] == 1
        second = session.simulator("AddMult", mode="compiled")
        assert second.uses_kernel()
        stats = session.cache_stats()
        assert stats["kernel"]["hits"] == 1
        assert stats["kernel"]["misses"] == 1
        assert "kernel" in session.stage_seconds()
