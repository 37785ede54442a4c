"""Differential testing of the scheduled engine against the fixpoint
interpreter.

Every design in :mod:`repro.designs` is compiled and driven with the same
pipelined random-transaction stimulus under both engines; the cycle-by-cycle
traces must be identical — including the X values the harness injects
outside availability windows.  The conflicting-driver and combinational-loop
error paths are exercised on hand-built netlists, and so is the settle rule
every tier shares: a port whose drivers are all inactive in a cycle reads X
in that cycle, in the top and in every child.
"""

import random

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
from repro.core.session import CompilationSession
from repro.designs import hdl_style_alu
from repro.evaluation import evaluation_designs
from repro.harness import harness_for, random_transactions
from repro.sim import Simulator, X, compiler_available, is_x
from repro.sim.engine import columns_to_rows


def _traces_equal(left, right):
    """Cycle-by-cycle equality, X for X."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if set(a) != set(b):
            return False
        for name in a:
            va, vb = a[name], b[name]
            if is_x(va) != is_x(vb) or (not is_x(va) and va != vb):
                return False
    return True


@pytest.mark.parametrize("name,thunk", evaluation_designs(),
                         ids=[name for name, _ in evaluation_designs()])
def test_every_design_traces_identically(name, thunk):
    program, entrypoint = thunk()
    session = CompilationSession.for_program(program)
    calyx = session.calyx(entrypoint)
    harness = harness_for(program, entrypoint, calyx=calyx)
    stimulus, _ = harness._schedule(random_transactions(harness, 25, seed=11))
    # The harness stimulus drives X on every data port outside its
    # availability interval, so X propagation is differentially covered.
    assert any(any(is_x(v) for v in cycle.values()) for cycle in stimulus)

    scheduled = Simulator(calyx, entrypoint, mode="auto")
    fixpoint = Simulator(calyx, entrypoint, mode="fixpoint")
    compiled = Simulator(calyx, entrypoint, mode="compiled")
    assert scheduled.scheduled_everywhere(), \
        f"{name} fell back to the sweep loop"
    reference = fixpoint.run_batch(stimulus)
    assert _traces_equal(scheduled.run_batch(stimulus), reference)
    assert _traces_equal(compiled.run_batch(stimulus), reference)
    assert compiled.uses_kernel(), \
        f"{name} kernel fell back: {compiled.kernel_fallback_reason}"


def test_hdl_style_alu_traces_identically():
    """The hand-built (untyped, behaviourally wrong on purpose) Figure 1
    netlist also runs identically under both engines."""
    stimulus = [{"op": 1, "l": 10, "r": 20}] + [{"op": 1, "l": X, "r": X}] * 4
    traces = []
    for mode in ("auto", "fixpoint"):
        traces.append(Simulator(hdl_style_alu(), mode=mode).run_batch(stimulus))
    assert _traces_equal(*traces)


def _conflicting_program() -> CalyxProgram:
    component = CalyxComponent(
        "top", inputs=[PortSpec("a", 8), PortSpec("b", 8)],
        outputs=[PortSpec("o", 8)])
    component.add_wire(Assignment(CellPort(None, "o"), CellPort(None, "a")))
    component.add_wire(Assignment(CellPort(None, "o"), CellPort(None, "b")))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


@pytest.mark.parametrize("mode", ["auto", "fixpoint", "compiled"])
def test_conflicting_drivers_raise_in_both_engines(mode):
    simulator = Simulator(_conflicting_program(), mode=mode)
    with pytest.raises(SimulationError, match="conflicting drivers"):
        simulator.step({"a": 1, "b": 2})


@pytest.mark.parametrize("mode", ["auto", "fixpoint", "compiled"])
def test_agreeing_drivers_pass_in_both_engines(mode):
    program = _conflicting_program()
    assert Simulator(program, mode=mode).step({"a": 5, "b": 5})["o"] == 5


def _looped_program() -> CalyxProgram:
    component = CalyxComponent("top", inputs=[], outputs=[PortSpec("o", 8)])
    component.add_cell(Cell("A", "Add", (8,)))
    component.add_cell(Cell("B", "Add", (8,)))
    component.add_wire(Assignment(CellPort("A", "left"), CellPort("B", "out")))
    component.add_wire(Assignment(CellPort("A", "right"), 1))
    component.add_wire(Assignment(CellPort("B", "left"), CellPort("A", "out")))
    component.add_wire(Assignment(CellPort("B", "right"), 1))
    component.add_wire(Assignment(CellPort(None, "o"), CellPort("A", "out")))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


def _settling_loop_program() -> CalyxProgram:
    """A *deliberately cyclic* netlist that still settles: a mux whose
    ``in1`` feeds back from its own output.  With ``sel = 0`` the loop is
    transparent (``out = a``); with ``sel = 1`` the loop X-stabilises.  The
    register gives the design multi-cycle state so a whole stimulus stream
    has to route through the sweep fallback."""
    component = CalyxComponent(
        "top", inputs=[PortSpec("a", 8), PortSpec("sel", 1)],
        outputs=[PortSpec("o", 8)])
    component.add_cell(Cell("M", "Mux", (8,)))
    component.add_cell(Cell("R", "Reg", (8,)))
    component.add_wire(Assignment(CellPort("M", "in0"), CellPort(None, "a")))
    component.add_wire(Assignment(CellPort("M", "in1"), CellPort("M", "out")))
    component.add_wire(Assignment(CellPort("M", "sel"), CellPort(None, "sel")))
    component.add_wire(Assignment(CellPort("R", "in"), CellPort("M", "out")))
    component.add_wire(Assignment(CellPort("R", "en"), 1))
    component.add_wire(Assignment(CellPort(None, "o"), CellPort("R", "out")))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


def test_fixpoint_fallback_traces_identically_over_a_stream():
    """The scheduled engine must refuse to levelize the cyclic mux netlist,
    route the whole multi-cycle stream through the sweep loop, and still
    produce exactly the reference fixpoint trace — including the X cycles
    the feedback path introduces."""
    stimulus = [{"a": value, "sel": value % 2} for value in range(1, 11)]

    fallback = Simulator(_settling_loop_program(), mode="auto")
    assert not fallback.is_scheduled
    assert not fallback.scheduled_everywhere()
    reference = Simulator(_settling_loop_program(), mode="fixpoint")

    fallback_trace = fallback.run_batch(stimulus)
    assert _traces_equal(fallback_trace, reference.run_batch(stimulus))

    # Semantics spot-check: the register sees ``a`` after sel=0 cycles and
    # X after sel=1 cycles (the loop X-stabilises), one cycle later.
    for cycle, inputs in enumerate(stimulus[:-1]):
        observed = fallback_trace[cycle + 1]["o"]
        if inputs["sel"] == 0:
            assert observed == inputs["a"]
        else:
            assert is_x(observed)


def test_combinational_loop_falls_back_and_stabilises_to_x():
    """A cyclic netlist cannot be levelized: ``auto`` mode transparently
    falls back to the sweep loop and behaves exactly like ``fixpoint``."""
    simulator = Simulator(_looped_program(), mode="auto")
    assert not simulator.is_scheduled
    assert is_x(simulator.step({})["o"])
    assert is_x(Simulator(_looped_program(), mode="fixpoint").step({})["o"])


# -- one settle rule in every tier ---------------------------------------------


def _kid_program() -> CalyxProgram:
    """``Top`` wires its inputs ``go``, ``a``, ``b`` and ``c`` into a child
    ``Kid``, which drives ``A.left = go ? a``, ``A.right = go ? b`` and
    ``X.right = go ? c`` and outputs ``(A.left + A.right) ^ X.right``."""
    guard = Guard((CellPort(None, "go"),))
    ports = [PortSpec("go", 1), PortSpec("a", 8), PortSpec("b", 8),
             PortSpec("c", 8)]
    kid = CalyxComponent("Kid", inputs=list(ports),
                         outputs=[PortSpec("o", 8)])
    kid.add_cell(Cell("A", "Add", (8,)))
    kid.add_cell(Cell("X", "Xor", (8,)))
    for dst, src in ((("A", "left"), "a"), (("A", "right"), "b"),
                     (("X", "right"), "c")):
        kid.add_wire(Assignment(CellPort(*dst), CellPort(None, src), guard))
    kid.add_wire(Assignment(CellPort("X", "left"), CellPort("A", "out")))
    kid.add_wire(Assignment(CellPort(None, "o"), CellPort("X", "out")))
    top = CalyxComponent("Top", inputs=list(ports),
                         outputs=[PortSpec("y", 8)])
    top.add_cell(Cell("k", "Kid"))
    for port in ("go", "a", "b", "c"):
        top.add_wire(Assignment(CellPort("k", port), CellPort(None, port)))
    top.add_wire(Assignment(CellPort(None, "y"), CellPort("k", "o")))
    program = CalyxProgram(entrypoint="Top")
    program.add(kid)
    program.add(top)
    return program


def _kid_stimulus():
    rng = random.Random(20)
    return [{"go": go, "a": rng.getrandbits(8), "b": rng.getrandbits(8),
             "c": rng.getrandbits(8)} for go in (1, X, 0, 1, 0, 0, 1)]


def _pick_program(width: int = 8) -> CalyxProgram:
    """``Top`` around a child ``Pick`` whose ``width``-bit output has two
    guarded drivers, ``o = g ? a`` and ``o = h ? b``."""
    ports = [PortSpec("g", 1), PortSpec("h", 1), PortSpec("a", width),
             PortSpec("b", width)]
    pick = CalyxComponent("Pick", inputs=list(ports),
                          outputs=[PortSpec("o", width)])
    for guard, src in (("g", "a"), ("h", "b")):
        pick.add_wire(Assignment(CellPort(None, "o"), CellPort(None, src),
                                 Guard((CellPort(None, guard),))))
    top = CalyxComponent("Top", inputs=list(ports),
                         outputs=[PortSpec("y", width)])
    top.add_cell(Cell("p", "Pick"))
    for port in ("g", "h", "a", "b"):
        top.add_wire(Assignment(CellPort("p", port), CellPort(None, port)))
    top.add_wire(Assignment(CellPort(None, "y"), CellPort("p", "o")))
    program = CalyxProgram(entrypoint="Top")
    program.add(pick)
    program.add(top)
    return program


def _pick_stimulus():
    # Both guards are low in cycles 2, 4 and 6, cycle 5's X guard drives
    # X, and in cycle 7 both drivers are active and agree.
    guards = [(1, 0), (0, 1), (0, 0), (1, 0), (0, 0), (X, 0), (0, 0), (1, 1)]
    rows = [{"g": g, "h": h, "a": 10 + cycle, "b": 20 + cycle}
            for cycle, (g, h) in enumerate(guards)]
    rows[-1]["b"] = rows[-1]["a"]
    return rows


#: name -> (program, entrypoint, output, stimulus, the output's trace).
_RULE_CASES = {
    "child": (_kid_program, "Top", "y", _kid_stimulus,
              [15, X, X, 151, X, X, 88]),
    "child-as-top": (_kid_program, "Kid", "o", _kid_stimulus,
                     [15, X, X, 151, X, X, 88]),
    "two-driver-child": (_pick_program, "Top", "y", _pick_stimulus,
                         [10, 21, X, 13, X, X, X, 17]),
}


def _rule_trace(case, tier):
    """The output column of ``case`` under ``tier``: an engine mode, or
    ``"native-lanes"`` (lane 0 of a three-lane native batch whose other
    lanes are prefixes and must match their own fixpoint runs)."""
    build, entry, port, stimulus, _ = _RULE_CASES[case]
    rows = stimulus()
    if tier == "native-lanes":
        simulator = Simulator(build(), entry, mode="native")
        streams = [rows, rows[:4], rows[:1]]
        lanes = simulator.run_lanes(streams)
        for stream, lane in zip(streams[1:], lanes[1:]):
            reference = Simulator(build(), entry, mode="fixpoint")
            assert _traces_equal(lane, reference.run_batch(stream))
        trace = lanes[0]
    else:
        simulator = Simulator(build(), entry, mode=tier)
        trace = simulator.run_batch(rows)
    if tier.startswith("native"):
        if compiler_available():
            assert simulator.uses_native(), simulator.native_fallback_reason
        else:
            # Without a C compiler the native rows run the compiled
            # fallback, and say why.
            assert "no C compiler" in simulator.native_fallback_reason
            assert simulator.uses_kernel(), simulator.kernel_fallback_reason
    if tier == "compiled":
        assert simulator.uses_kernel(), simulator.kernel_fallback_reason
    return [row[port] for row in trace]


@pytest.mark.parametrize("tier", ["fixpoint", "auto", "compiled", "native",
                                  "native-lanes"])
@pytest.mark.parametrize("case", sorted(_RULE_CASES))
def test_an_undriven_port_reads_x_in_every_tier(case, tier):
    """A port whose drivers are all inactive in a cycle reads X in that
    cycle, whether its component is the top or a child, in every tier."""
    assert _rule_trace(case, tier) == _RULE_CASES[case][-1]


# -- the compiled tier's columnar entry --------------------------------------


def _column_netlists():
    """``label -> (calyx, entrypoint, rows)`` for every netlist the
    column-entry tests drive: chain16, AddMult and generator seeds 3, 5
    and 8 under their harness's stimulus (X outside every availability
    window), the held child (as child and as top) and a child with a
    two-driver port under their own."""
    from repro.conformance import generate
    from repro.evaluation import chain_program

    designs = {"chain16": chain_program(16),
               "addmult": dict(evaluation_designs())["addmult"]()}
    for seed in (3, 5, 8):
        generated = generate(seed)
        designs[f"gen{seed}"] = (generated.program, generated.spec.name)
    netlists = {}
    for label, (program, entry) in designs.items():
        calyx = CompilationSession(program).calyx(entry)
        harness = harness_for(program, entry, calyx=calyx)
        rows, _ = harness._schedule(random_transactions(harness, 12, seed=7))
        netlists[label] = (calyx, entry, rows)
    netlists["child"] = (_kid_program(), "Top", _kid_stimulus())
    netlists["child-as-top"] = (_kid_program(), "Kid", _kid_stimulus())
    netlists["two-driver-child"] = (_pick_program(), "Top", _pick_stimulus())
    return netlists


_COLUMN_NETLISTS = _column_netlists()


def _columns(rows, names, extra=0):
    """``rows`` as one ``(values, xflags)`` column per name, X flagged,
    with ``extra`` entries past the last row."""
    columns = {}
    for name in names:
        trace = [row.get(name, X) for row in rows] + [5] * extra
        columns[name] = ([0 if value is X else value for value in trace],
                         bytearray([value is X for value in trace]))
    return columns


def _compiled(calyx, entry):
    simulator = Simulator(calyx, entry, mode="compiled")
    assert simulator.prepare()["kernel"], simulator.kernel_fallback_reason
    return simulator


class TestCompiledColumnEntry:
    """The compiled kernel's one entry is columnar, as the native
    kernel's: ``run_columns`` runs it directly and ``run_batch``
    converts rows at the engine boundary, with the interpreter's
    masking, idling, cutting, errors and conflicts."""

    @pytest.mark.parametrize("label", sorted(_COLUMN_NETLISTS))
    def test_columns_and_rows_trace_like_fixpoint(self, label):
        from repro.sim.engine import rows_to_columns

        calyx, entry, rows = _COLUMN_NETLISTS[label]
        component = calyx.get(entry)
        assert any(is_x(value) for row in rows for value in row.values())
        reference = Simulator(calyx, entry, mode="fixpoint").run_batch(rows)
        out = _compiled(calyx, entry).run_columns(
            len(rows), _columns(rows, component.input_names()))
        assert out == rows_to_columns(
            (reference,), component.output_names(), len(rows))
        assert _compiled(calyx, entry).run_batch(rows) == reference

    def test_inputs_are_masked_like_rows(self):
        calyx, entry, _ = _COLUMN_NETLISTS["chain16"]
        rows = [{"go": 3, "a": (1 << 20) | 77, "b": -3},
                {"go": 1, "a": -1, "b": X},
                {"go": 1, "a": 0x1FFFF, "b": 1 << 40}]
        reference = Simulator(calyx, entry, mode="auto").run_batch(rows)
        out = _compiled(calyx, entry).run_columns(
            3, _columns(rows, ("go", "a", "b")))
        assert columns_to_rows(out, 3) == reference
        assert _compiled(calyx, entry).run_batch(rows) == reference

    def test_a_missing_port_idles_at_x_and_long_columns_are_cut(self):
        calyx, entry, _ = _COLUMN_NETLISTS["child"]
        rows = _kid_stimulus()
        without_c = [{name: value for name, value in row.items()
                      if name != "c"} for row in rows]
        reference = Simulator(calyx, entry, mode="fixpoint").run_batch(
            without_c)
        simulator = _compiled(calyx, entry)
        out = simulator.run_columns(
            len(rows), _columns(rows, ("go", "a", "b")))
        assert columns_to_rows(out, len(rows)) == reference
        simulator.reset()
        out = simulator.run_columns(
            len(rows), _columns(rows, ("go", "a", "b", "c"), extra=4))
        assert all(len(values) == len(xflags) == len(rows)
                   for values, xflags in out.values())
        assert columns_to_rows(out, len(rows)) == Simulator(
            calyx, entry, mode="fixpoint").run_batch(rows)
        # Every column long and free of X.
        chain, top, _ = _COLUMN_NETLISTS["chain16"]
        clean = [{"go": 1, "a": a, "b": 3 * a} for a in range(5)]
        out = _compiled(chain, top).run_columns(
            5, _columns(clean, ("go", "a", "b"), extra=3))
        assert columns_to_rows(out, 5) == _compiled(
            chain, top).run_batch(clean)
        assert all(len(values) == 5 for values, _ in out.values())
        # A column shorter than the run idles at X past its end.
        short = _columns(rows, ("go", "a", "b", "c"))
        short["c"] = (short["c"][0][:3], short["c"][1][:3])
        simulator.reset()
        assert columns_to_rows(simulator.run_columns(len(rows), short),
                               len(rows)) == Simulator(
            calyx, entry, mode="fixpoint").run_batch(
                rows[:3] + without_c[3:])

    def test_an_unknown_port_raises_like_rows(self):
        calyx, entry, _ = _COLUMN_NETLISTS["chain16"]
        with pytest.raises(SimulationError) as rows_error:
            Simulator(calyx, entry, mode="fixpoint").run_batch([{"zz": 1}])
        with pytest.raises(SimulationError) as columns_error:
            _compiled(calyx, entry).run_columns(
                1, {"zz": ([1], bytearray(1))})
        assert str(columns_error.value) == str(rows_error.value)

    def test_a_conflict_raises_the_same_message_and_cycle(self):
        from repro.core.errors import DriverConflictError

        calyx, entry, _ = _COLUMN_NETLISTS["two-driver-child"]
        rows = _pick_stimulus()
        rows[-1]["b"] = rows[-1]["a"] ^ 1
        errors = []
        with pytest.raises(DriverConflictError) as info:
            Simulator(calyx, entry, mode="fixpoint").run_batch(rows)
        errors.append(info.value)
        with pytest.raises(DriverConflictError) as info:
            _compiled(calyx, entry).run_batch(rows)
        errors.append(info.value)
        with pytest.raises(DriverConflictError) as info:
            _compiled(calyx, entry).run_columns(
                len(rows), _columns(rows, ("g", "h", "a", "b")))
        errors.append(info.value)
        assert len({str(error) for error in errors}) == 1, errors
        assert {error.cycle for error in errors} == {len(rows) - 1}

    def test_peek_and_outputs_read_the_kernel_after_a_column_run(self):
        calyx, entry, _ = _COLUMN_NETLISTS["child"]
        rows = _kid_stimulus()
        reference = Simulator(calyx, entry, mode="auto")
        last = reference.run_batch(rows)[-1]
        simulator = _compiled(calyx, entry)
        simulator.run_columns(len(rows),
                              _columns(rows, ("go", "a", "b", "c")))
        assert simulator.outputs() == last == reference.outputs()
        assert simulator.peek("k", "o") == reference.peek("k", "o")
        simulator.reset()
        assert is_x(simulator.peek(None, "y"))


# -- fused runs of cached segments --------------------------------------------


def _nested_pick_program() -> CalyxProgram:
    """``Outer`` around ``Mid`` around the two-driver ``Pick``: the
    segments of ``Outer`` and ``Mid`` on either side of ``Pick``'s (which
    has free variables, so stays a call of its own) form runs of two."""
    program = _pick_program()
    pick, inner = program.get("Pick"), program.get("Top")
    mid = CalyxComponent("Mid", inputs=list(inner.inputs),
                         outputs=list(inner.outputs))
    mid.cells, mid.wires = inner.cells, inner.wires
    outer = CalyxComponent("Outer", inputs=list(inner.inputs),
                           outputs=list(inner.outputs))
    outer.add_cell(Cell("m", "Mid"))
    for port in ("g", "h", "a", "b"):
        outer.add_wire(Assignment(CellPort("m", port), CellPort(None, port)))
    outer.add_wire(Assignment(CellPort(None, "y"), CellPort("m", "y")))
    nested = CalyxProgram(entrypoint="Outer")
    for component in (pick, mid, outer):
        nested.add(component)
    return nested


def _wrap(inner: CalyxComponent, name: str) -> CalyxComponent:
    """A component ``name`` with ``inner``'s interface that passes it
    through a child ``w`` of ``inner``'s component."""
    outer = CalyxComponent(name, inputs=list(inner.inputs),
                           outputs=list(inner.outputs))
    outer.add_cell(Cell("w", inner.name))
    for port in inner.inputs:
        outer.add_wire(Assignment(CellPort("w", port.name),
                                  CellPort(None, port.name)))
    for port in inner.outputs:
        outer.add_wire(Assignment(CellPort(None, port.name),
                                  CellPort("w", port.name)))
    return outer


def _doubler() -> CalyxComponent:
    """``Dbl``: ``z = x + x`` over 8 bits."""
    dbl = CalyxComponent("Dbl", inputs=[PortSpec("x", 8)],
                         outputs=[PortSpec("z", 8)])
    dbl.add_cell(Cell("A", "Add", (8,)))
    for port in ("left", "right"):
        dbl.add_wire(Assignment(CellPort("A", port), CellPort(None, "x")))
    dbl.add_wire(Assignment(CellPort(None, "z"), CellPort("A", "out")))
    return dbl


def _split_input_program() -> CalyxProgram:
    """``Outer`` around ``Mid`` around ``Split``, which reads its input
    ``a`` on both sides of its child ``d`` (a ``Dbl``): ``d.x = a``
    before it and ``S.right = d.z ? a`` after it, ``y = S.out`` with
    ``S.left = d.z``."""
    split = CalyxComponent("Split", inputs=[PortSpec("a", 8)],
                           outputs=[PortSpec("y", 8)])
    split.add_cell(Cell("d", "Dbl"))
    split.add_cell(Cell("S", "Add", (8,)))
    split.add_wire(Assignment(CellPort("d", "x"), CellPort(None, "a")))
    split.add_wire(Assignment(CellPort("S", "left"), CellPort("d", "z")))
    split.add_wire(Assignment(CellPort("S", "right"), CellPort(None, "a"),
                              Guard((CellPort("d", "z"),))))
    split.add_wire(Assignment(CellPort(None, "y"), CellPort("S", "out")))
    mid = _wrap(split, "Mid")
    program = CalyxProgram(entrypoint="Outer")
    for component in (_doubler(), split, mid, _wrap(mid, "Outer")):
        program.add(component)
    return program


def _late_read_program() -> CalyxProgram:
    """``Outer`` around ``Pair``, which drives two ``Dbl`` children,
    ``p.x = a`` and then ``q.x = b``, and reads ``p``'s output only after
    ``q``: ``y = q.z ? p.z``."""
    pair = CalyxComponent("Pair", inputs=[PortSpec("a", 8),
                                          PortSpec("b", 8)],
                          outputs=[PortSpec("y", 8)])
    for cell, port in (("p", "a"), ("q", "b")):
        pair.add_cell(Cell(cell, "Dbl"))
        pair.add_wire(Assignment(CellPort(cell, "x"), CellPort(None, port)))
    pair.add_wire(Assignment(CellPort(None, "y"), CellPort("p", "z"),
                             Guard((CellPort("q", "z"),))))
    program = CalyxProgram(entrypoint="Outer")
    for component in (_doubler(), pair, _wrap(pair, "Outer")):
        program.add(component)
    return program


def _boundary_stimulus(names):
    # A zero or 128 doubles to a zero guard; X reads X.
    rng = random.Random(28)
    values = [rng.getrandbits(8) for _ in range(5)] + [0, X, 128, 9]
    return [{name: values[(cycle + offset) % len(values)]
             for offset, name in enumerate(names)}
            for cycle in range(len(values))]


def _fused_netlists():
    """``label -> (calyx, entrypoint, rows)`` for every netlist the
    fused-run tests drive: chain16 and chain64, every evaluation design
    with a child cell and generator seeds 0-39 drawn under the hierarchy
    regime (the default regime draws single-component programs) under
    their harness's stimulus, and the held child (as child and as top),
    the two-driver child and the two-driver grandchild under their own."""
    from repro.conformance.generator import GeneratorConfig, generate
    from repro.evaluation import chain_program

    designs = {"chain16": chain_program(16), "chain64": chain_program(64)}
    hierarchy = GeneratorConfig(regime_weights=(("hierarchy", 1.0),))
    for seed in range(40):
        generated = generate(seed, hierarchy)
        designs[f"gen{seed}"] = (generated.program, generated.spec.name)
    designs.update((name, thunk()) for name, thunk in evaluation_designs())
    netlists = {}
    for label, (program, entry) in designs.items():
        calyx = CompilationSession(program).calyx(entry)
        if not any(cell.component in calyx.components
                   for component in calyx.components.values()
                   for cell in component.cells):
            continue
        harness = harness_for(program, entry, calyx=calyx)
        count = 4 if label == "chain64" else 12
        rows, _ = harness._schedule(random_transactions(harness, count,
                                                        seed=7))
        netlists[label] = (calyx, entry, rows)
    netlists["child"] = (_kid_program(), "Top", _kid_stimulus())
    netlists["child-as-top"] = (_kid_program(), "Kid", _kid_stimulus())
    netlists["two-driver-child"] = (_pick_program(), "Top", _pick_stimulus())
    netlists["two-driver-grandchild"] = (_nested_pick_program(), "Outer",
                                         _pick_stimulus())
    netlists["split-input"] = (_split_input_program(), "Outer",
                               _boundary_stimulus(("a",)))
    netlists["late-read"] = (_late_read_program(), "Outer",
                             _boundary_stimulus(("a", "b")))
    return netlists


_FUSED_NETLISTS = _fused_netlists()

#: Netlists with no run of two segments to fuse: a single component, and
#: parents whose segments their children's multi-driver segments split.
_NOTHING_TO_FUSE = {"child-as-top", "divider-iterative", "two-driver-child"}


def _pieces_bound():
    from repro.sim.codegen import kernel_cache_stats

    stats = kernel_cache_stats()
    return stats["pieces_compiled"] + stats["pieces_reused"]


@pytest.fixture
def instances(monkeypatch):
    """Every compiled kernel instance built while a test runs, as ``(top
    slot list, segments)``, its runs of segments fused."""
    from repro.sim import codegen

    seen = []
    fused = codegen.CompiledKernelProgram._fused

    def spy(self, segments, top):
        out = fused(self, segments, top)
        seen.append((top, out))
        return out

    monkeypatch.setattr(codegen.CompiledKernelProgram, "_fused", spy)
    return seen


def _settle_writes(simulator, instance, inputs):
    """Per slot list below the top of ``simulator``'s kernel ``instance``,
    in the order its segments first name them, the slots one settle on
    ``inputs`` (the top's input values in order) writes: after a reset,
    each X in those lists is a sentinel that a write replaces."""
    top, segments = instance
    simulator.reset()
    lists = {}
    for segment in segments:
        for value in segment.__defaults__:
            if type(value) is list and value is not top:
                lists.setdefault(id(value), value)
    sentinel = object()
    for slots in lists.values():
        slots[:] = [sentinel if value is X else value for value in slots]
    top[:len(inputs)] = inputs
    for segment in segments:
        segment()
    return [{slot for slot, value in enumerate(slots) if value is not sentinel}
            for slots in lists.values()]


def _assert_traces_like_fixpoint(simulator, calyx, entry, rows):
    """``simulator`` traces ``rows`` like ``fixpoint``, with equal
    ``outputs()`` and an equal ``peek`` on every slot of the top."""
    reference = Simulator(calyx, entry, mode="fixpoint")
    assert simulator.run_batch(rows) == reference.run_batch(rows)
    assert simulator.outputs() == reference.outputs()
    for cell, port in simulator._kernel._slot_map:
        want = reference.peek(cell, port)
        got = simulator.peek(cell, port)
        if not port.startswith("#"):  # register state, not a signal
            assert is_x(got) == is_x(want) and (
                is_x(want) or got == want), (cell, port, got)


class TestFusedRuns:
    """A warm kernel fuses the runs of segments an earlier build compiled
    into pieces, and a fused kernel traces like ``fixpoint``."""

    @pytest.mark.parametrize("label", sorted(_FUSED_NETLISTS))
    def test_a_third_build_traces_like_fixpoint(self, label):
        from repro.sim.codegen import clear_kernel_cache
        from repro.sim.engine import rows_to_columns

        calyx, entry, rows = _FUSED_NETLISTS[label]
        component = calyx.get(entry)
        clear_kernel_cache()
        for _ in range(2):
            _compiled(calyx, entry)
        bound = _pieces_bound()
        simulator = _compiled(calyx, entry)
        assert (_pieces_bound() > bound) == (label not in _NOTHING_TO_FUSE)
        trace = Simulator(calyx, entry, mode="fixpoint").run_batch(rows)
        out = simulator.run_columns(
            len(rows), _columns(rows, component.input_names()))
        assert out == rows_to_columns(
            (trace,), component.output_names(), len(rows))
        simulator.reset()
        _assert_traces_like_fixpoint(simulator, calyx, entry, rows)

    @pytest.mark.parametrize("label", ["two-driver-child",
                                       "two-driver-grandchild"])
    def test_a_conflict_raises_the_same_message_and_cycle(self, label):
        from repro.core.errors import DriverConflictError
        from repro.sim.codegen import clear_kernel_cache

        calyx, entry, rows = _FUSED_NETLISTS[label]
        rows = [dict(row) for row in rows]
        rows[-1]["b"] = rows[-1]["a"] ^ 1
        clear_kernel_cache()
        for _ in range(2):
            _compiled(calyx, entry)
        errors = []
        with pytest.raises(DriverConflictError) as info:
            Simulator(calyx, entry, mode="fixpoint").run_batch(rows)
        errors.append(info.value)
        with pytest.raises(DriverConflictError) as info:
            _compiled(calyx, entry).run_batch(rows)
        errors.append(info.value)
        with pytest.raises(DriverConflictError) as info:
            _compiled(calyx, entry).run_columns(
                len(rows), _columns(rows, ("g", "h", "a", "b")))
        errors.append(info.value)
        assert len({str(error) for error in errors}) == 1, errors
        assert {error.cycle for error in errors} == {len(rows) - 1}

    def test_a_leaf_edit_session_fuses_from_its_first_edit(self):
        from repro.evaluation import chain_program, edit_chain_leaf
        from repro.evaluation.compile_time import _calls_per_cycle
        from repro.sim.codegen import clear_kernel_cache, kernel_cache_stats

        clear_kernel_cache()
        program, entry = chain_program(16, salt=0x3C1)
        session = CompilationSession(program)

        def edit(value):
            edit_chain_leaf(program, value)
            simulator = harness_for(program, entry,
                                    session=session)._fresh_simulator()
            assert simulator.prepare()["kernel"]
            stats = kernel_cache_stats()
            return (_calls_per_cycle(simulator), stats["pieces_compiled"],
                    stats["pieces_reused"])

        session.verilog(entry)
        # The first build generates every chunk, so it fuses nothing; the
        # first edit compiles one piece for each of its two runs of 15, and
        # later edits only bind them.
        assert edit(0x3C1) == (31, 0, 0)
        assert edit(0x3C2) == (3, 2, 0)
        assert edit(0x3C3) == (3, 2, 2)
        assert edit(0x3C4) == (3, 2, 4)

    def test_every_edit_of_a_session_traces_like_fixpoint(self, instances):
        """Each leaf edit's kernel, its links fused around the fresh leaf,
        traces like ``fixpoint``; a link stores only the two slots its
        other segment reads, and the leaf, fused neither into the piece
        before it nor into the one after, is still handed every input."""
        from repro.evaluation import chain_program, edit_chain_leaf
        from repro.evaluation.compile_time import _stores_per_cycle
        from repro.sim.codegen import clear_kernel_cache

        clear_kernel_cache()
        program, entry = chain_program(16, salt=0x3C1)
        session = CompilationSession(program)
        for edit, value in enumerate(range(0x3C1, 0x3C5)):
            edit_chain_leaf(program, value)
            harness = harness_for(program, entry, session=session)
            simulator = harness._fresh_simulator()
            rows, _ = harness._schedule(
                random_transactions(harness, 12, seed=edit))
            _assert_traces_like_fixpoint(simulator, session.calyx(entry),
                                         entry, rows)
            if edit == 0:  # a first build generates every chunk
                continue
            slots = [plan.chunk.slots for plan in simulator._plans
                     if plan.name == "Chain1"][0]
            kept = {slots[("G_fsm", "_0")], slots[("A", "right")]}
            writes = _settle_writes(simulator, instances[-1], [1, 5, 9])
            # Chain14, whose inputs the top stores, .. Chain1, then the
            # fresh leaf Chain0.
            assert writes[:-1] == [kept | {0, 1, 2}] + [kept] * 13
            assert {0, 1, 2} <= writes[-1]
            # The top's 13 stores and its 3 inputs, 2 per link, the leaf's
            # 9 and Chain1's 3 stores of the leaf's inputs.
            assert _stores_per_cycle(simulator) == 13 + 3 + 2 * 14 + 9 + 3

    def test_a_fused_link_stores_only_its_cross_segment_slots(
            self, instances):
        """A second build of ``chain_program(16)`` runs in two pieces:
        inside them a link stores only ``G_fsm`` and ``A.right``, which
        its segment after its child reads (and the first link the inputs
        the top stores), and the leaf only its output, which the next
        piece reads."""
        calyx, entry, _ = _FUSED_NETLISTS["chain16"]
        _compiled(calyx, entry)
        simulator = _compiled(calyx, entry)
        link, leaf = ([plan.chunk.slots for plan in simulator._plans
                       if plan.name == name][0]
                      for name in ("Chain1", "Chain0"))
        kept = {link[("G_fsm", "_0")], link[("A", "right")]}
        writes = _settle_writes(simulator, instances[-1], [1, 5, 9])
        assert len(instances[-1][1]) == 2
        assert writes == [kept | {0, 1, 2}] + [kept] * 13 + [
            {leaf[(None, "out")]}]

    @pytest.mark.parametrize("label,inputs,owner,slot", [
        ("split-input", [7], 1, (None, "a")),
        ("late-read", [7, 9], 0, ("p", "z"))])
    def test_a_boundary_store_another_segment_reads_survives(
            self, instances, label, inputs, owner, slot):
        """In one piece, a value stored across a child boundary is
        forwarded to the next segment, but its store stays when another
        segment reads it too: ``Split`` reads its input ``a`` on both
        sides of its child, and ``Pair`` reads its copy of ``p.z`` only
        after its second child."""
        calyx, entry, rows = _FUSED_NETLISTS[label]
        _compiled(calyx, entry)
        simulator = _compiled(calyx, entry)
        assert len(instances[-1][1]) == 1  # the whole design, one piece
        _assert_traces_like_fixpoint(simulator, calyx, entry, rows)
        component = {"split-input": "Split", "late-read": "Pair"}[label]
        slots = [plan.chunk.slots for plan in simulator._plans
                 if plan.name == component][0]
        assert slots[slot] in _settle_writes(
            simulator, instances[-1], inputs)[owner]

    def test_no_piece_spans_more_than_16_segments(self):
        from repro.evaluation import chain_program, edit_chain_leaf
        from repro.evaluation.compile_time import _calls_per_cycle
        from repro.sim import codegen

        codegen.clear_kernel_cache()
        program, entry = chain_program(64, salt=0x3C1)
        session = CompilationSession(program)
        for value in range(3):
            edit_chain_leaf(program, 0x3C1 + value)
            simulator = harness_for(program, entry,
                                    session=session)._fresh_simulator()
            simulator.prepare()
        # Two runs of 63 around the leaf, four pieces each; the links'
        # segments are equal code, so equal slices compile once, but a
        # piece holding one of the top's segments keeps every store there
        # and compiles apart: the first run's first piece (the top's first
        # segment), its next two, its last, then the second run's first
        # three and its last (the top's last segment).
        assert _calls_per_cycle(simulator) == 9
        sizes = sorted(stop - start
                       for _, pieces in codegen._RUNS._entries.values()
                       for start, stop, _ in pieces)
        assert sizes == [15, 15] + [16] * 6
        assert codegen.kernel_cache_stats()["pieces_compiled"] == 5
        assert codegen._PIECE_SEGMENTS == 16

    def test_clear_kernel_cache_drops_every_piece(self):
        from repro.sim import codegen

        calyx, entry, _ = _FUSED_NETLISTS["chain16"]
        codegen.clear_kernel_cache()
        for _ in range(3):
            _compiled(calyx, entry)
        assert len(codegen._RUNS)
        codegen.clear_kernel_cache()
        assert len(codegen._RUNS) == 0
        stats = codegen.kernel_cache_stats()
        assert stats["pieces_compiled"] == stats["pieces_reused"] == 0
        # Cold again: the first build generates every chunk, and the
        # second compiles the pieces afresh.
        _compiled(calyx, entry)
        assert _pieces_bound() == 0
        _compiled(calyx, entry)
        assert codegen.kernel_cache_stats()["pieces_compiled"] > 0
