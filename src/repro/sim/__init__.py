"""Cycle-accurate simulation substrate (stands in for cocotb + an RTL
simulator in the paper's evaluation)."""

from .codegen import (
    KernelUnavailable,
    clear_kernel_cache,
    kernel_cache_limit,
    kernel_cache_stats,
    netlist_digest,
)
from .engine import ScheduledEngine
from .native import (
    NativeUnavailable,
    clear_native_cache,
    compiler_available,
    native_cache_stats,
)
from .primitives import (
    PrimitiveModel,
    create_primitive,
    is_primitive,
    primitive_names,
    register_primitive,
)
from .simulator import Simulator, run_trace
from .values import (
    Value,
    X,
    format_value,
    is_x,
    mask,
    to_bool,
)
from .waveform import WaveformRecorder, render_ascii

__all__ = [
    "ScheduledEngine",
    "KernelUnavailable", "clear_kernel_cache", "kernel_cache_stats",
    "kernel_cache_limit",
    "netlist_digest",
    "NativeUnavailable", "clear_native_cache", "compiler_available",
    "native_cache_stats",
    "PrimitiveModel", "create_primitive", "is_primitive", "primitive_names",
    "register_primitive",
    "Simulator", "run_trace",
    "Value", "X", "format_value", "is_x", "mask", "to_bool",
    "WaveformRecorder", "render_ascii",
]
