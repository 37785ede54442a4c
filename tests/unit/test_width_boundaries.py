"""Width-boundary sweep across all four engine tiers.

The native C tier stores a value of width ``w`` in ``ceil(w / 64)``
consecutive ``uint64_t`` limbs (at most 4 — 256 bits), so the interesting
widths bracket every limb boundary: 62/63 (headroom), 64 (exactly one full
limb, where C wrap-around must coincide with the Python bigint semantics),
65 (the first two-limb width, where carry/borrow chains start mattering),
127/128/129 (bracketing the two-limb boundary the same way).  For every
primitive in the sweep and every boundary width the randomized trace —
values and X planes — must be identical under the fixpoint reference, the
scheduled interpreter, the compiled Python kernel and the native C kernel
(scalar), and as lane batches on the native lane entry and on the scalar
fallback (one compiled-kernel run per stream).  Widths past 256 bits must *fall back* with a recorded reason,
never compute wrong values.
"""

import random

import pytest

from repro.sim import Simulator, X, compiler_available, is_x

from test_codegen import _single_cell_program, _stimulus  # noqa: F401

WIDTHS = (62, 63, 64, 65, 127, 128, 129)
CYCLES = 16
LANES = 3


def _cases(width):
    """(primitive, params, input widths) instantiated at one boundary
    width; ``Concat``'s boundary is the *sum* of its halves and ``Slice``
    keeps all but the low bit."""
    return [
        ("Add", (width,), {"left": width, "right": width}),
        ("Sub", (width,), {"left": width, "right": width}),
        ("And", (width,), {"left": width, "right": width}),
        ("Or", (width,), {"left": width, "right": width}),
        ("Xor", (width,), {"left": width, "right": width}),
        ("MultComb", (width,), {"left": width, "right": width}),
        ("Eq", (width,), {"left": width, "right": width}),
        ("Neq", (width,), {"left": width, "right": width}),
        ("Lt", (width,), {"left": width, "right": width}),
        ("Gt", (width,), {"left": width, "right": width}),
        ("Le", (width,), {"left": width, "right": width}),
        ("Ge", (width,), {"left": width, "right": width}),
        ("Not", (width,), {"in": width}),
        ("Mux", (width,), {"sel": 1, "in1": width, "in0": width}),
        ("ShiftLeft", (width, 3), {"in": width}),
        ("ShiftRight", (width, width - 1), {"in": width}),
        ("Slice", (width, width - 1, 1), {"in": width}),
        ("Concat", (width - 32, 32), {"hi": width - 32, "lo": 32}),
        ("Reg", (width,), {"en": 1, "in": width}),
        ("Delay", (width,), {"in": width}),
        ("Prev", (width, 1), {"en": 1, "in": width}),
    ]


def _assert_same(reference, trace, context):
    assert len(reference) == len(trace), context
    for cycle, (a, b) in enumerate(zip(reference, trace)):
        assert set(a) == set(b), (context, cycle)
        for port in a:
            assert is_x(a[port]) == is_x(b[port]), \
                (context, cycle, port, a[port], b[port])
            if not is_x(a[port]):
                assert a[port] == b[port], \
                    (context, cycle, port, a[port], b[port])


@pytest.mark.parametrize("width", WIDTHS)
def test_scalar_tiers_agree_at_width_boundary(width):
    for name, params, widths in _cases(width):
        rng = random.Random(hash((name, params, width)) & 0xFFFF)
        program = _single_cell_program(name, params, widths)
        stimulus = _stimulus(rng, widths, CYCLES)
        context = f"{name}{list(params)}@{width}"

        reference = Simulator(program, mode="fixpoint").run_batch(stimulus)
        scheduled = Simulator(program, mode="auto")
        _assert_same(reference, scheduled.run_batch(stimulus),
                     context + " scheduled")
        compiled = Simulator(program, mode="compiled")
        _assert_same(reference, compiled.run_batch(stimulus),
                     context + " compiled")
        assert compiled.uses_kernel(), \
            (context, compiled.kernel_fallback_reason)

        native = Simulator(program, mode="native")
        _assert_same(reference, native.run_batch(stimulus),
                     context + " native")
        if compiler_available():
            # Multi-limb spill keeps every boundary width (65-256 bits)
            # on the native tier — no fallback anywhere in the sweep.
            assert native.uses_native(), \
                (context, native.native_fallback_reason)


@pytest.mark.parametrize("width", WIDTHS)
def test_lane_tiers_agree_at_width_boundary(width):
    """Native-lane and scalar-fallback lane batches of the same streams
    must both be bit-identical to per-stream scalar runs."""
    for name, params, widths in _cases(width):
        rng = random.Random(hash((name, params, width, "packed")) & 0xFFFF)
        program = _single_cell_program(name, params, widths)
        streams = [_stimulus(rng, widths, CYCLES) for _ in range(LANES)]
        context = f"{name}{list(params)}@{width} lanes"

        compiled = Simulator(program, mode="compiled")
        fallback = compiled.run_lanes(streams)
        assert compiled.uses_kernel(), \
            (context, compiled.kernel_fallback_reason)
        native = Simulator(program, mode="native")
        native_lanes = native.run_lanes(streams)
        if compiler_available():
            assert native.uses_native_lanes(), \
                (context, native.native_fallback_reason)
        scalar = Simulator(program, mode="auto")
        for lane, stream in enumerate(streams):
            scalar.reset()
            reference = scalar.run_batch(stream)
            _assert_same(reference, fallback[lane], f"{context} lane {lane}")
            _assert_same(reference, native_lanes[lane],
                         f"{context} native lane {lane}")


@pytest.mark.parametrize("width", (257, 300))
def test_widths_past_the_limb_cap_fall_back_with_reason(width):
    """One bit past 4 limbs: the tier must refuse, record why, and the
    fallback trace must still be bit-exact."""
    rng = random.Random(width)
    widths = {"left": width, "right": width}
    program = _single_cell_program("Add", (width,), widths)
    stimulus = _stimulus(rng, widths, CYCLES)
    reference = Simulator(program, mode="fixpoint").run_batch(stimulus)
    native = Simulator(program, mode="native")
    _assert_same(reference, native.run_batch(stimulus), f"Add@{width}")
    assert not native.uses_native()
    reason = native.native_fallback_reason
    assert reason is not None and f"{width} bits wide" in reason, reason
    # The lane path reports the same fallback.
    native.run_lanes([stimulus[:4]])
    assert not native.uses_native_lanes()
    assert native.native_fallback_reason is not None
    assert f"{width} bits wide" in native.native_fallback_reason


def _limb_corners(width):
    """Directed operand pairs that cross every limb boundary of ``width``:
    all-ones (carry ripples the whole chain), single top bits, and values
    straddling each 64-bit boundary."""
    top = (1 << width) - 1
    corners = [
        (top, top),          # carry/borrow through every limb
        (top, 1),            # increments wrap to zero
        (0, 1),              # 0 - 1 borrows through every limb
        (0, top),
        (1 << (width - 1), 1 << (width - 1)),
    ]
    for boundary in range(64, width, 64):
        corners += [
            ((1 << boundary) - 1, 1),          # carry exactly at the limb edge
            (1 << boundary, 1),
            ((1 << boundary) - 1, (1 << boundary) - 1),
            # Equal high limbs force compares to decide on the low limbs.
            (top - 1, top),
            (top ^ (1 << boundary), top),
        ]
    return corners


@pytest.mark.parametrize("width", (64, 65, 127, 128, 129, 192, 256))
@pytest.mark.parametrize("name", ("Add", "Sub", "MultComb", "Lt", "Le",
                                  "Gt", "Ge", "Eq", "Neq"))
def test_limb_boundary_corners_are_exact(name, width):
    widths = {"left": width, "right": width}
    program = _single_cell_program(name, (width,), widths)
    stimulus = [{"i_left": a, "i_right": b}
                for a, b in _limb_corners(width)]
    reference = Simulator(program, mode="fixpoint").run_batch(stimulus)
    native = Simulator(program, mode="native")
    _assert_same(reference, native.run_batch(stimulus), f"{name}@{width}")
    if compiler_available():
        assert native.uses_native(), native.native_fallback_reason


@pytest.mark.parametrize("width", (63, 64, 65, 128, 129, 256))
def test_x_plane_crosses_limb_boundaries(width):
    """A directed ``'dx`` case per limb count: X on either operand, on a
    mux select, and on a register enable must propagate identically on
    the native tier — scalar and lane entries both."""
    top = (1 << width) - 1
    for name, params, widths, stimulus in [
        ("Add", (width,), {"left": width, "right": width},
         [{"i_left": X, "i_right": top},
          {"i_left": top, "i_right": X},
          {"i_left": X, "i_right": X},
          {"i_left": top, "i_right": 1}]),
        ("Mux", (width,), {"sel": 1, "in1": width, "in0": width},
         [{"i_sel": X, "i_in1": top, "i_in0": 0},
          {"i_sel": 1, "i_in1": X, "i_in0": 0},
          {"i_sel": 0, "i_in1": top, "i_in0": X},
          {"i_sel": 1, "i_in1": top, "i_in0": X}]),
        ("Reg", (width,), {"en": 1, "in": width},
         [{"i_en": 1, "i_in": top},
          {"i_en": X, "i_in": 5},       # X enable poisons the state
          {"i_en": 0, "i_in": 1},
          {"i_en": 1, "i_in": 7},
          {"i_en": 0, "i_in": X}]),
    ]:
        program = _single_cell_program(name, params, widths)
        context = f"{name}@{width} x-plane"
        reference = Simulator(program, mode="fixpoint").run_batch(stimulus)
        native = Simulator(program, mode="native")
        _assert_same(reference, native.run_batch(stimulus), context)
        if compiler_available():
            assert native.uses_native(), native.native_fallback_reason
        lanes = Simulator(program, mode="native")
        lane_traces = lanes.run_lanes([stimulus, list(reversed(stimulus))])
        scalar = Simulator(program, mode="auto")
        _assert_same(reference, lane_traces[0], context + " lane 0")
        _assert_same(scalar.run_batch(list(reversed(stimulus))),
                     lane_traces[1], context + " lane 1")


def test_full_width_values_cross_the_native_boundary_exactly():
    """Directed 64-bit corners: all-ones operands through add/sub/mult wrap
    in C exactly as the Python bigint semantics say they must."""
    top = (1 << 64) - 1
    for name in ("Add", "Sub", "MultComb"):
        program = _single_cell_program(name, (64,),
                                       {"left": 64, "right": 64})
        stimulus = [
            {"i_left": top, "i_right": top},
            {"i_left": top, "i_right": 1},
            {"i_left": 1 << 63, "i_right": 1 << 63},
            {"i_left": top, "i_right": X},
            {"i_left": 0, "i_right": top},
        ]
        reference = Simulator(program, mode="fixpoint").run_batch(stimulus)
        native = Simulator(program, mode="native")
        _assert_same(reference, native.run_batch(stimulus), name)
        if compiler_available():
            assert native.uses_native(), native.native_fallback_reason
