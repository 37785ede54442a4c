"""Lane batches, primitive by primitive, plus scalar X-control checks.

The core property: ``run_lanes`` over N streams must be indistinguishable
from N scalar model instances stepped side by side — same output values,
same X planes, cycle by cycle through registered state — on every engine
tier: the native lane entry and the N-scalar-runs fallback (compiled kernel
and interpreter).  The random streams drive X at a healthy rate so per-lane
X handling is exercised everywhere.
"""

import random

import pytest

from repro.sim import Simulator, X, compiler_available, create_primitive, is_x

from test_codegen import CASES, _single_cell_program

LANES = 5
CYCLES = 10

#: Every tier a lane batch can run on from this host.
MODES = ("auto", "compiled") + (("native",) if compiler_available() else ())


def _random_value(rng, width, x_rate=0.3):
    if rng.random() < x_rate:
        return X
    return rng.getrandbits(width)


def _same(a, b):
    return is_x(a) == is_x(b) and (is_x(a) or a == b)


def _assert_lanes_match_scalar_models(name, params, widths, streams, traces):
    """Replay every stream through its own scalar model instance and
    compare each cycle's outputs with the lane trace."""
    assert len(traces) == len(streams)
    for lane, (stream, trace) in enumerate(zip(streams, traces)):
        model = create_primitive(name, params)
        assert len(trace) == len(stream)
        for cycle, (row, outputs) in enumerate(zip(stream, trace)):
            inputs = {port: row[f"i_{port}"] for port in widths}
            want = model.combinational(inputs)
            for port in model.outputs:
                got = outputs[f"o_{port}"]
                assert _same(want.get(port, X), got), \
                    (name, port, lane, cycle, want.get(port, X), got)
            model.tick(inputs)


@pytest.mark.parametrize("name,params,widths", CASES,
                         ids=[f"{c[0]}{list(c[1])}" for c in CASES])
def test_packed_matches_n_scalar_instances(name, params, widths):
    """One lane batch per tier against N scalar model instances."""
    rng = random.Random(hash((name, params)) & 0xFFFF)
    program = _single_cell_program(name, params, widths)
    streams = [[{f"i_{port}": _random_value(rng, width)
                 for port, width in widths.items()} for _ in range(CYCLES)]
               for _ in range(LANES)]
    for mode in MODES:
        simulator = Simulator(program, mode=mode)
        traces = simulator.run_lanes(streams)
        if mode == "native":
            assert simulator.uses_native_lanes(), \
                simulator.native_fallback_reason
        _assert_lanes_match_scalar_models(name, params, widths, streams,
                                          traces)


def test_replicated_lanes_matches_scalar_for_custom_primitive():
    """Substrate-registered black boxes (here the Reticle ``Tdot``) keep a
    netlist off the native lane entry: the batch replicates one scalar run
    per lane and must stay exact, registered state included."""
    import repro.generators.reticle.dsp  # noqa: F401 — registers Tdot

    rng = random.Random(5)
    widths = {p: 8 for p in ("a0", "b0", "a1", "b1", "a2", "b2", "c")}
    program = _single_cell_program("Tdot", (8,), widths)
    streams = [[{f"i_{port}": _random_value(rng, width)
                 for port, width in widths.items()} for _ in range(8)]
               for _ in range(LANES)]
    for mode in MODES:
        simulator = Simulator(program, mode=mode)
        traces = simulator.run_lanes(streams)
        if mode == "native":
            assert not simulator.uses_native_lanes()
            assert "Tdot" in simulator.native_fallback_reason
        _assert_lanes_match_scalar_models("Tdot", (8,), widths, streams,
                                          traces)


class TestControlXPropagation:
    """An X control input must never pick a definite branch."""

    def test_register_x_enable_poisons_state(self):
        model = create_primitive("Reg", (8,))
        model.tick({"en": 1, "in": 9})
        model.tick({"en": X, "in": 5})
        assert is_x(model.combinational({})["out"])

    def test_prev_x_enable_poisons_state(self):
        model = create_primitive("Prev", (8, 1))
        model.tick({"en": 1, "in": 9})
        model.tick({"en": X, "in": 5})
        assert is_x(model.combinational({})["prev"])

    def test_dsp_mac_x_clock_enable_poisons_state(self):
        model = create_primitive("DspMac", (16,))
        model.tick({"ce": 1, "a": 2, "b": 3, "pin": 0})
        model.tick({"ce": X, "a": 1, "b": 1, "pin": 0})
        assert is_x(model.combinational({})["pout"])

    def test_fsm_x_trigger_shifts_x(self):
        model = create_primitive("fsm", (3,))
        assert is_x(model.combinational({"go": X})["_0"])
        model.tick({"go": X})
        assert is_x(model.combinational({"go": 0})["_1"])
        model.tick({"go": 0})
        assert is_x(model.combinational({"go": 0})["_2"])
