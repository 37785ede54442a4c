"""Native execution tier: C kernel emission below the Python kernels.

:mod:`repro.sim.codegen` compiles a levelized netlist into straight-line
Python; this module walks the **same** schedule and emits the same kernel as
C instead — signals become ``uint64_t`` value slots with a parallel
``uint8_t`` X-plane, stdlib primitive semantics become the same mask
expressions the scalar Python templates inline, driver groups become
if/else chains with exact conflict detection, and sequential state lives in
one flat struct per component with ``settle``/``tick``/``reset`` entry
points.  The generated translation unit is compiled once per netlist digest
with the host C compiler (``cc``/``gcc``/``clang``; override with
``REPRO_CC``) at ``-Og``, which builds ~2.4x faster than ``-O2`` while
its kernels run at most ~1.5x slower (see :data:`_CFLAGS`), loaded
through :mod:`ctypes`, and cached twice:

* an on-disk tier in the crash-safe :class:`~repro.core.store.ArtifactStore`
  (namespace ``native``), keyed by a tag of the build flags and a digest
  of the generated C text, so a recompile across processes is a verified
  file load, and an emitter change that alters the C misses the store
  instead of being served an object built from the old text.  The root is
  ``REPRO_STORE_DIR`` when set, else a private per-uid directory under the
  temp dir.  If publishing to the store fails (disk full, injected fault),
  the freshly built ``.so`` still runs out of its private build directory
  — a degradation, never a failure; and
* a process-wide :class:`~repro.core.store.DigestCache` of 256 loaded
  programs, keyed by :func:`~repro.sim.codegen.netlist_digest` (one
  process runs one emitter, so the netlist fixes the C text there).

Every construct is emitted once, as the per-component ``settle``/``tick``
functions, and one run entry drives them: ``k_run_lanes`` takes N
consecutive state structs, each lane's cycle count and lane-major-within-
port columnar buffers (flat index ``(word * cycles + i) * n_lanes + l``).
It loops over cycles, then over lanes in ascending order; for each lane
still inside its own cycle count it loads that lane's inputs, settles,
stores the outputs and ticks, and a lane past its count is skipped.  A
scalar run (:meth:`NativeKernel.run_columns`) is one lane over the
instance's own state; a lane batch (:meth:`NativeKernel.run_lanes_columns`)
is N lanes over a fresh state block.  The engine reaches both with
columns only (its row entries convert through
:mod:`repro.sim.engine`'s converters).  Input and output cross the
Python↔C boundary exactly once per batch, so a batch of short streams
pays the per-call overhead once.

Values wider than 64 bits **spill to multi-limb slots**: a signal of
width ``w`` occupies ``ceil(w / 64)`` consecutive ``uint64_t`` words
(little-endian limbs, at most 4 — 256 bits), sized by the shared planner
in :func:`repro.sim.codegen.plan_slot_limbs` so no copy anywhere in the
hierarchy truncates the unmasked Python ints the interpreter keeps.
Add/sub use limb-wise carry/borrow chains, comparisons compare limbs from
the top, multiplies are truncated schoolbook products, and shift/slice/
concat move whole limb windows — all bit-identical to the Python masks.

The tier stays deliberately conservative: netlists with black-box/
substrate primitives, any value wider than 256 bits, or no host C
compiler raise :class:`NativeUnavailable` and the engine falls back to
the compiled-Python tier exactly as compiled falls back to scheduled: the
chain is native → compiled → scheduled → fixpoint and semantics never
fork.

Exactness notes:

* ``a + b``, ``a - b`` and ``a * b`` on ``uint64_t`` wrap modulo 2**64,
  which equals Python's ``(a ± b) & mask`` / ``(a * b) & mask`` for any
  mask of ≤ 64 bits; the limb chains extend the same identity wider;
* X canonicalisation: whenever a slot's X flag is set its value words are
  0, so value equality checks inside driver groups match the
  interpreter's ``Value`` comparisons;
* conflicting drivers abort the C batch mid-settle and report the plan,
  lane and cycle plus the captured guard/source slots.  Because lanes run
  in ascending order within a cycle, the report is the earliest cycle,
  then the lowest lane.  A scalar run replays
  :func:`repro.sim.codegen._resolve_slots` over the captured slots to
  raise the **identical** :class:`~repro.core.errors.DriverConflictError`
  message; a lane batch formats the ``... (lane N)`` message
  ``run_lanes`` documents;
* input values are truncated to their port's declared width at the C
  boundary (the contract every engine batch entry documents).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import faults as _faults
from ..core.errors import DriverConflictError
from ..core.store import ArtifactStore, DigestCache, default_store
from .values import Value, X
from . import codegen
from .codegen import (
    _MULT_LATENCY,
    _SCALAR_BINARY,
    _ComponentCompiler,
    _is_stdlib,
    _resolve_slots,
    netlist_digest,
    plan_slot_limbs,
)
from .engine import _GROUP, _PRIM

__all__ = [
    "NativeUnavailable",
    "NativeKernelProgram",
    "NativeKernel",
    "native_for",
    "find_compiler",
    "compiler_available",
    "native_cache_stats",
    "clear_native_cache",
]

#: ``cc`` flags for every kernel build.  A digest of them is part of the
#: on-disk key, so an object built with other flags is never served.
#: ``-Og`` is the level picked by measurement (gcc 12.2, 2-vCPU host): it
#: compiles the generated C of generator seeds 0-8 2.3-2.6x faster than
#: ``-O2`` and 1.4x faster than ``-O1``, and cuts a cold Conv2d build plus
#: first run from ~1.2 s to ~0.2 s.  ``-O2`` kernels run only 1.2-1.5x
#: faster per cycle (Conv2d ~190 against ~245 ns), which repays Conv2d's
#: extra second of ``cc`` only after ~20M cycles; a conformance seed
#: builds once and runs 12 transactions.  ``-O0`` builds ~10% faster
#: than ``-Og`` but runs 1.3-2.3x slower.
_CFLAGS = ("-Og", "-shared", "-fPIC")

_M64 = (1 << 64) - 1

#: Widest representable signal: 4 limbs of 64 bits.
_MAX_LIMBS = 4

#: A signal key, as everywhere else: ``(cell_name_or_None, port_name)``.
_Key = Tuple[Optional[str], str]


class NativeUnavailable(Exception):
    """The native tier cannot handle this netlist (or this host); the
    caller falls back to the compiled-Python kernel tier."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Host compiler detection
# ---------------------------------------------------------------------------

_COMPILER_CACHE: Dict[Optional[str], Optional[str]] = {}


def find_compiler() -> Optional[str]:
    """Path of the host C compiler, or ``None``.  ``REPRO_CC`` overrides
    the ``cc``/``gcc``/``clang`` probe; the result is memoised per
    ``REPRO_CC`` value (so changing it re-probes) and reset by
    :func:`clear_native_cache`."""
    override = os.environ.get("REPRO_CC")
    if override in _COMPILER_CACHE:
        return _COMPILER_CACHE[override]
    candidates = [override] if override else ["cc", "gcc", "clang"]
    found = None
    for candidate in candidates:
        if candidate:
            found = shutil.which(candidate)
            if found:
                break
    _COMPILER_CACHE[override] = found
    return found


def compiler_available() -> bool:
    """Whether the native tier can build kernels on this host."""
    return find_compiler() is not None


def _cache_dir() -> Path:
    """The default ``.so`` store directory (created on demand).

    Cached artifacts are loaded with ``ctypes.CDLL`` and keyed by a
    predictable digest, so the default directory must not be spoofable by
    other local users: it lives under the shared temp dir but embeds the
    uid, is created ``0o700``, and is rejected (→ fallback to the Python
    tier) if it exists with the wrong owner or loose permissions."""
    uid = os.getuid() if hasattr(os, "getuid") else 0
    directory = Path(tempfile.gettempdir()) / f"repro-native-cache-{uid}"
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    if hasattr(os, "getuid"):
        st = directory.stat()
        if st.st_uid != uid or (st.st_mode & 0o077):
            raise NativeUnavailable(
                f"native cache dir {directory} is not private to uid {uid} "
                f"(owner {st.st_uid}, mode {st.st_mode & 0o777:o}); remove "
                f"it or set REPRO_STORE_DIR")
    return directory


_STORE_MEMO: Dict[str, ArtifactStore] = {}


def _native_store() -> ArtifactStore:
    """The on-disk ``.so`` tier, as a crash-safe artifact store: the
    ``REPRO_STORE_DIR`` store (trusted as given) when one is configured,
    otherwise a private per-uid temp directory (from :func:`_cache_dir`,
    which verifies ownership and mode — a compromised directory raises
    :class:`NativeUnavailable`) whose every served payload must also be
    private to this uid before ``ctypes.CDLL`` trusts it."""
    shared = default_store()
    if shared is not None:
        return shared
    directory = str(_cache_dir())
    store = _STORE_MEMO.get(directory)
    if store is None:
        store = ArtifactStore(directory, require_private=True)
        _STORE_MEMO[directory] = store
    return store


# ---------------------------------------------------------------------------
# C source emission
# ---------------------------------------------------------------------------


def _hex(value: int) -> str:
    return f"0x{value:x}ULL"


#: Multi-limb arithmetic helpers, emitted once per translation unit.  All
#: operate on little-endian ``uint64_t`` limb arrays of ``n <= 4`` words;
#: outputs never alias inputs at the call sites the emitter generates.
_NK_HELPERS = """\
static inline void nk_add(uint64_t* o, const uint64_t* a,
                          const uint64_t* b, int n) {
    uint64_t c = 0;
    for (int i = 0; i < n; i++) {
        uint64_t s = a[i] + b[i];
        uint64_t c1 = s < a[i];
        o[i] = s + c;
        c = c1 | (o[i] < s);
    }
}

static inline void nk_sub(uint64_t* o, const uint64_t* a,
                          const uint64_t* b, int n) {
    uint64_t br = 0;
    for (int i = 0; i < n; i++) {
        uint64_t d = a[i] - b[i];
        uint64_t b1 = a[i] < b[i];
        o[i] = d - br;
        br = b1 | (d < br);
    }
}

static inline void nk_mul(uint64_t* o, const uint64_t* a,
                          const uint64_t* b, int n) {
    /* truncated schoolbook product: low n limbs of a*b */
    for (int i = 0; i < n; i++) o[i] = 0;
    for (int i = 0; i < n; i++) {
        uint64_t carry = 0;
        for (int j = 0; i + j < n; j++) {
            unsigned __int128 t =
                (unsigned __int128)a[i] * b[j] + o[i + j] + carry;
            o[i + j] = (uint64_t)t;
            carry = (uint64_t)(t >> 64);
        }
    }
}

static inline int nk_cmp(const uint64_t* a, const uint64_t* b, int n) {
    for (int i = n - 1; i >= 0; i--) {
        if (a[i] < b[i]) return -1;
        if (a[i] > b[i]) return 1;
    }
    return 0;
}

static inline void nk_shl(uint64_t* o, const uint64_t* a, int n, int by) {
    int ws = by >> 6, bs = by & 63;
    for (int i = n - 1; i >= 0; i--) {
        uint64_t hi = (i - ws >= 0 && i - ws < n) ? a[i - ws] : 0;
        uint64_t lo = (i - ws - 1 >= 0) ? a[i - ws - 1] : 0;
        o[i] = bs ? ((hi << bs) | (lo >> (64 - bs))) : hi;
    }
}

static inline void nk_shr(uint64_t* o, const uint64_t* a, int n, int by) {
    int ws = by >> 6, bs = by & 63;
    for (int i = 0; i < n; i++) {
        uint64_t lo = (i + ws < n) ? a[i + ws] : 0;
        uint64_t hi = (i + ws + 1 < n) ? a[i + ws + 1] : 0;
        o[i] = bs ? ((lo >> bs) | (hi << (64 - bs))) : lo;
    }
}
"""


class _PlanRegistry:
    """Multi-driver group plans shared across the whole translation unit:
    each gets a global id, the Python-side resolution tuple (for exact
    error replay) and the ``(slot, limbs)`` list the C code captures at
    the moment of a conflict."""

    def __init__(self) -> None:
        self.plans: List[tuple] = []
        self.captures: List[List[Tuple[int, int]]] = []

    def add(self, plan: tuple, capture: List[Tuple[int, int]]) -> int:
        self.plans.append(plan)
        self.captures.append(capture)
        return len(self.plans) - 1

    @property
    def max_capture_words(self) -> int:
        return max([sum(limbs for _, limbs in c) for c in self.captures]
                   + [1])

    @property
    def max_capture_slots(self) -> int:
        return max([len(c) for c in self.captures] + [1])


class _CEmitter:
    """Emits one component's struct and its ``reset``/``settle``/``tick``
    C functions from the shared :class:`_ComponentCompiler` slot analysis
    plus the shared limb plan.  ``comp_ids`` numbers every component of
    the translation unit by name.

    Every value slot occupies ``limbs[slot]`` consecutive words of the
    component struct's ``v`` array (``word_of[slot]`` is the first); the
    X plane stays one byte per slot.  Bodies reference the current
    component struct through the ``S*`` argument ``st``; ``k_run_lanes``
    calls the top component's functions once per lane."""

    def __init__(self, compiler: _ComponentCompiler,
                 comp_ids: Dict[str, int], limbs: Dict[int, int],
                 plans: _PlanRegistry,
                 by_name: Dict[str, "_CEmitter"]) -> None:
        self.c = compiler
        self.plans = plans
        self.comp_ids = comp_ids
        self.cid = comp_ids[compiler.name]
        self.limbs = limbs
        self.by_name = by_name
        self.word_of: Dict[int, int] = {}
        word = 0
        for slot in range(len(compiler.slots)):
            self.word_of[slot] = word
            word += limbs[slot]
        self.total_words = word

    # -- helpers ---------------------------------------------------------------

    def _nl(self, width: int) -> int:
        """Limbs needed for ``width`` bits."""
        return max(1, (width + 63) // 64)

    def _width_ok(self, width: int, where: str) -> None:
        if width > 64 * _MAX_LIMBS:
            raise NativeUnavailable(
                f"{where}: width {width} > {64 * _MAX_LIMBS} "
                f"(native limb spill caps at {_MAX_LIMBS} limbs)")

    def _limb_mask(self, width: int, k: int) -> Optional[int]:
        """Mask for limb ``k`` of a ``width``-bit value: ``None`` for a
        full limb, ``0`` for a limb entirely above the width."""
        top = (width - 1) // 64
        if k < top:
            return None
        if k > top:
            return 0
        rest = width - 64 * top
        return None if rest == 64 else (1 << rest) - 1

    def _masked(self, expr: str, width: int, k: int) -> str:
        mask = self._limb_mask(width, k)
        if mask is None:
            return expr
        if mask == 0:
            return "0"
        return f"({expr} & {_hex(mask)})"

    def _const_limbs(self, value, n: int, where: str) -> List[str]:
        if value is X:
            raise NativeUnavailable(f"{where}: X constant")
        if not isinstance(value, int) or value < 0:
            raise NativeUnavailable(f"{where}: constant {value!r} is not a "
                                    f"non-negative integer")
        if value >> (64 * n):
            raise NativeUnavailable(f"{where}: constant {value!r} does not "
                                    f"fit in {n} limbs")
        return [_hex((value >> (64 * k)) & _M64) for k in range(n)]

    def _v(self, slot: int, k: int = 0) -> str:
        return f"st->v[{self.word_of[slot] + k}]"

    def _x(self, slot: int) -> str:
        return f"st->x[{slot}]"

    def _nz(self, slot: int) -> str:
        """Nonzero test over every limb of ``slot`` (X slots read 0)."""
        n = self.limbs[slot]
        if n == 1:
            return self._v(slot)
        return "(" + " | ".join(self._v(slot, k) for k in range(n)) + ")"

    def _gather(self, slot: int, n: int) -> List[str]:
        """``n`` limb expressions for ``slot``, zero-extended past its
        storage."""
        have = self.limbs[slot]
        return [self._v(slot, k) if k < have else "0ULL" for k in range(n)]

    def _gather_masked(self, slot: int, n: int, width: int) -> List[str]:
        return [self._masked(expr, width, k)
                for k, expr in enumerate(self._gather(slot, n))]

    def _zero(self, out: codegen._Lines, slot: int) -> None:
        n = self.limbs[slot]
        out.emit(" ".join(f"{self._v(slot, k)} = 0;" for k in range(n)))

    def _copy_slot(self, out: codegen._Lines, dst: int, src: int,
                   comment: str = "") -> None:
        """Zero-extending limb copy ``src`` → ``dst`` (value + X flag)."""
        nd, ns = self.limbs[dst], self.limbs[src]
        tail = f"  /* {comment} */" if comment else ""
        if nd == 1 and ns == 1:
            out.emit(f"{self._v(dst)} = {self._v(src)}; "
                     f"{self._x(dst)} = {self._x(src)};{tail}")
            return
        parts = [f"{self._v(dst, k)} = "
                 f"{self._v(src, k) if k < ns else '0'};"
                 for k in range(nd)]
        parts.append(f"{self._x(dst)} = {self._x(src)};")
        out.emit(" ".join(parts) + tail)

    def _store_result(self, out: codegen._Lines, dst: int, xexpr: str,
                      exprs: List[str], comment: str = "") -> None:
        """``dst = xexpr ? X : exprs`` with zero-extension to the slot's
        limb count.  ``exprs`` are the result limbs (at most the slot's
        count); X keeps the canonical all-zero value words."""
        nd = self.limbs[dst]
        exprs = list(exprs) + ["0"] * (nd - len(exprs))
        tail = f"  /* {comment} */" if comment else ""
        if nd == 1:
            out.emit(f"{self._x(dst)} = {xexpr}; "
                     f"{self._v(dst)} = {xexpr} ? 0 : {exprs[0]};{tail}")
            return
        out.emit(f"{self._x(dst)} = {xexpr};{tail}")
        out.emit(f"if ({xexpr}) {{ "
                 + " ".join(f"{self._v(dst, k)} = 0;" for k in range(nd))
                 + " } else { "
                 + " ".join(f"{self._v(dst, k)} = {expr};"
                            for k, expr in enumerate(exprs))
                 + " }")

    def _src_limbs(self, assign, n: int, where: str
                   ) -> Tuple[List[str], str]:
        """C (value limbs, xflag) expressions for an assignment's source,
        zero-extended to ``n`` limbs."""
        if assign.src_key is None:
            return self._const_limbs(assign.src_const, n, where), "0"
        slot = self.c.slots[assign.src_key]
        return self._gather(slot, n), self._x(slot)

    def _guard_lines(self, out: codegen._Lines, guard_keys) -> None:
        for key in guard_keys:
            g = self.c.slots[key]
            out.emit(f"if ({self._x(g)}) unk = 1; "
                     f"else if ({self._nz(g)}) act = 1;")

    # -- struct ----------------------------------------------------------------

    def emit_struct(self, out: codegen._Lines) -> None:
        out.emit(f"typedef struct S{self.cid} {{"
                 f"  /* component {self.c.name!r} */")
        out.emit(f"    uint64_t v[{max(1, self.total_words)}];")
        out.emit(f"    uint8_t x[{max(1, len(self.c.slots))}];")
        for node in self.c.plan.child_nodes:
            child_id = self.comp_ids[node.component]
            out.emit(f"    struct S{child_id} c_{self.c._ident(node.cell)};"
                     f"  /* child {node.cell} */")
        out.emit(f"}} S{self.cid};")
        out.emit()

    # -- reset -----------------------------------------------------------------

    def emit_reset(self, out: codegen._Lines) -> None:
        c = self.c
        out.emit(f"static void reset_c{self.cid}(S{self.cid}* st) {{")
        out.indent += 1
        out.emit("memset(st->v, 0, sizeof(st->v));")
        out.emit("memset(st->x, 1, sizeof(st->x));")
        for index, value in sorted(c.init.items()):
            if value is X:
                continue
            lits = self._const_limbs(value, self.limbs[index],
                                     f"{c.name}: init slot {index}")
            out.emit(" ".join(f"{self._v(index, k)} = {lit};"
                              for k, lit in enumerate(lits))
                     + f" {self._x(index)} = 0;")
        for node in c.plan.child_nodes:
            child_id = self.comp_ids[node.component]
            out.emit(f"reset_c{child_id}(&st->c_{c._ident(node.cell)});")
        out.indent -= 1
        out.emit("}")
        out.emit()

    # -- settle ----------------------------------------------------------------

    def emit_settle(self, out: codegen._Lines) -> None:
        c = self.c
        # Conflict capture goes through caller-provided buffers (not C
        # globals): k_run_lanes threads them down so every NativeKernel
        # instance owns its own capture state and instances of one program
        # can run on different threads concurrently (ctypes drops the GIL).
        out.emit(f"static int settle_c{self.cid}(S{self.cid}* st, "
                 f"int64_t* eplan, uint64_t* ev, uint8_t* ex) {{")
        out.indent += 1
        out.emit("(void)eplan; (void)ev; (void)ex;")
        for kind, payload in c.schedule:
            if kind == _PRIM:
                self._emit_prim(out, payload)
            elif kind == _GROUP:
                self._emit_group(out, payload)
            else:
                self._emit_child(out, payload)
        out.emit("return 0;")
        out.indent -= 1
        out.emit("}")
        out.emit()

    def _emit_prim(self, out: codegen._Lines, node) -> None:
        model = node.model
        cell = node.cell
        if not _is_stdlib(model):  # pragma: no cover - eligibility pre-check
            raise NativeUnavailable(f"black-box primitive {cell!r}")
        name = model.name
        width = model.width
        sl = self.c.slots
        where = f"{self.c.name}.{cell} = {name}"

        def s(port: str) -> int:
            return sl[(cell, port)]

        def v(port: str, k: int = 0) -> str:
            return self._v(sl[(cell, port)], k)

        def x(port: str) -> str:
            return self._x(sl[(cell, port)])

        if name in _SCALAR_BINARY:
            self._width_ok(width, where)
            out_width = getattr(model, "_output_width", None)
            o = s("out")
            out.emit(f"{{ /* {cell} = {name}[{width}] */")
            out.indent += 1
            out.emit(f"uint8_t xx = {x('left')} | {x('right')};")
            if out_width is not None:
                cmp_ops = {"Eq": "==", "Neq": "!=", "Lt": "<", "Gt": ">",
                           "Le": "<=", "Ge": ">="}
                # Python compares the full unmasked slot values, so the
                # limb compare spans both operand slots entirely.
                n = max(self.limbs[s("left")], self.limbs[s("right")])
                if n == 1:
                    expr = (f"({v('left')} {cmp_ops[name]} {v('right')} "
                            f"? 1u : 0u)")
                    self._store_result(out, o, "xx", [expr])
                else:
                    out.emit(f"{self._x(o)} = xx;")
                    self._zero(out, o)
                    out.emit("if (!xx) {")
                    out.indent += 1
                    ga = ", ".join(self._gather(s("left"), n))
                    gb = ", ".join(self._gather(s("right"), n))
                    out.emit(f"uint64_t ta[{n}] = {{{ga}}};")
                    out.emit(f"uint64_t tb[{n}] = {{{gb}}};")
                    out.emit(f"{self._v(o)} = (nk_cmp(ta, tb, {n}) "
                             f"{cmp_ops[name]} 0) ? 1u : 0u;")
                    out.indent -= 1
                    out.emit("}")
            else:
                n = self._nl(width)
                if n == 1:
                    c_ops = {"Add": "+", "FlexAdd": "+", "Sub": "-",
                             "And": "&", "Or": "|", "Xor": "^",
                             "MultComb": "*"}
                    mask = (1 << width) - 1
                    expr = (f"(({v('left')} {c_ops[name]} {v('right')}) "
                            f"& {_hex(mask)})")
                    self._store_result(out, o, "xx", [expr])
                elif name in ("And", "Or", "Xor"):
                    op = {"And": "&", "Or": "|", "Xor": "^"}[name]
                    ga = self._gather(s("left"), n)
                    gb = self._gather(s("right"), n)
                    exprs = [self._masked(f"({a} {op} {b})", width, k)
                             for k, (a, b) in enumerate(zip(ga, gb))]
                    self._store_result(out, o, "xx", exprs)
                else:
                    fn = {"Add": "nk_add", "FlexAdd": "nk_add",
                          "Sub": "nk_sub", "MultComb": "nk_mul"}[name]
                    out.emit(f"{self._x(o)} = xx;")
                    out.emit("if (xx) { "
                             + " ".join(f"{self._v(o, k)} = 0;"
                                        for k in range(self.limbs[o]))
                             + " } else {")
                    out.indent += 1
                    ga = ", ".join(self._gather(s("left"), n))
                    gb = ", ".join(self._gather(s("right"), n))
                    out.emit(f"uint64_t ta[{n}] = {{{ga}}};")
                    out.emit(f"uint64_t tb[{n}] = {{{gb}}};")
                    out.emit(f"uint64_t tr[{n}];")
                    out.emit(f"{fn}(tr, ta, tb, {n});")
                    exprs = [self._masked(f"tr[{k}]", width, k)
                             for k in range(n)]
                    self._store_words(out, o, exprs)
                    out.indent -= 1
                    out.emit("}")
            out.indent -= 1
            out.emit("}")
        elif name == "Not":
            self._width_ok(width, where)
            o = s("out")
            n = self._nl(width)
            exprs = [self._masked(f"(~{g})", width, k)
                     for k, g in enumerate(self._gather(s("in"), n))]
            self._store_result(out, o, x("in"), exprs,
                               comment=f"{cell} = Not[{width}]")
        elif name == "Mux":
            self._width_ok(width, where)
            o = s("out")
            n = self._nl(width)
            out.emit(f"{{ /* {cell} = Mux[{width}] */")
            out.indent += 1
            out.emit(f"if ({x('sel')}) {{ {self._x(o)} = 1; "
                     + " ".join(f"{self._v(o, k)} = 0;"
                                for k in range(self.limbs[o]))
                     + " }")
            for arm, port in ((f"else if ({self._nz(s('sel'))})", "in1"),
                              ("else", "in0")):
                exprs = self._gather_masked(s(port), n, width)
                if self.limbs[o] == 1:
                    out.emit(f"{arm} {{ {self._x(o)} = {x(port)}; "
                             f"{self._v(o)} = {x(port)} ? 0 : {exprs[0]}; }}")
                else:
                    out.emit(f"{arm} {{")
                    out.indent += 1
                    self._store_result(out, o, x(port), exprs)
                    out.indent -= 1
                    out.emit("}")
            out.indent -= 1
            out.emit("}")
        elif name == "Slice":
            self._width_ok(width, where)
            hi = model.param(1, width - 1)
            lo = model.param(2, 0)
            sw = hi - lo + 1
            o = s("out")
            ni = self.limbs[s("in")]
            if ni == 1:
                expr = (f"(({v('in')} >> {lo}) & {_hex((1 << sw) - 1)})")
                self._store_result(out, o, x("in"), [expr],
                                   comment=f"{cell} = "
                                           f"Slice[{width},{hi},{lo}]")
            else:
                nr = self._nl(sw)
                out.emit(f"{{ /* {cell} = Slice[{width},{hi},{lo}] */")
                out.indent += 1
                out.emit(f"uint8_t xx = {x('in')};")
                out.emit(f"{self._x(o)} = xx;")
                out.emit("if (xx) { "
                         + " ".join(f"{self._v(o, k)} = 0;"
                                    for k in range(self.limbs[o]))
                         + " } else {")
                out.indent += 1
                gi = ", ".join(self._gather(s("in"), ni))
                out.emit(f"uint64_t ta[{ni}] = {{{gi}}};")
                out.emit(f"uint64_t ts[{ni}];")
                out.emit(f"nk_shr(ts, ta, {ni}, {lo});")
                exprs = [self._masked(f"ts[{k}]", sw, k)
                         for k in range(min(nr, ni))]
                self._store_words(out, o, exprs)
                out.indent -= 1
                out.emit("}")
                out.indent -= 1
                out.emit("}")
        elif name == "Concat":
            wh = model.param(0, 32)
            wl = model.param(1, 32)
            wr = wh + wl
            self._width_ok(wr, where)
            o = s("out")
            if wr <= 64:
                if wh == 0 or wl >= 64:
                    # The hi field is empty (or shifted fully out):
                    # emitting "<< 64" on uint64_t would be UB in C, and
                    # (1<<0)-1 masks hi to zero anyway — the result is
                    # just the lo field.
                    hi_term = None
                else:
                    hi_term = (f"(({v('hi')} & {_hex((1 << wh) - 1)}) "
                               f"<< {wl})")
                lo_term = f"({v('lo')} & {_hex((1 << wl) - 1)})"
                expr = f"({hi_term} | {lo_term})" if hi_term else lo_term
                out.emit(f"{{ /* {cell} = Concat[{wh},{wl}] */")
                out.indent += 1
                out.emit(f"uint8_t xx = {x('hi')} | {x('lo')};")
                self._store_result(out, o, "xx", [expr])
                out.indent -= 1
                out.emit("}")
            else:
                nr = self._nl(wr)
                out.emit(f"{{ /* {cell} = Concat[{wh},{wl}] */")
                out.indent += 1
                out.emit(f"uint8_t xx = {x('hi')} | {x('lo')};")
                out.emit(f"{self._x(o)} = xx;")
                out.emit("if (xx) { "
                         + " ".join(f"{self._v(o, k)} = 0;"
                                    for k in range(self.limbs[o]))
                         + " } else {")
                out.indent += 1
                gh = ", ".join(self._gather_masked(s("hi"), nr, wh))
                gl = ", ".join(self._gather_masked(s("lo"), nr, wl))
                out.emit(f"uint64_t th[{nr}] = {{{gh}}};")
                out.emit(f"uint64_t tr[{nr}];")
                out.emit(f"nk_shl(tr, th, {nr}, {wl});")
                out.emit(f"uint64_t tl[{nr}] = {{{gl}}};")
                self._store_words(out, o, [f"(tr[{k}] | tl[{k}])"
                                           for k in range(nr)])
                out.indent -= 1
                out.emit("}")
                out.indent -= 1
                out.emit("}")
        elif name in ("ShiftLeft", "ShiftRight"):
            self._width_ok(width, where)
            by = model.param(1, 1)
            o = s("out")
            nw = self._nl(width)
            ni = self.limbs[s("in")]
            comment = f"{cell} = {name}[{width},{by}]"
            if name == "ShiftLeft" and by >= width:
                # Every shifted bit clears the width mask; Python gets 0.
                self._store_result(out, o, x("in"), ["0"], comment=comment)
            elif nw == 1 and ni == 1:
                if by >= 64:
                    # A >=64 shift on uint64_t is UB in C; Python's
                    # (v >> by) & mask is 0 for a one-limb v.
                    expr = "0"
                elif name == "ShiftLeft":
                    expr = (f"(({v('in')} << {by}) "
                            f"& {_hex((1 << width) - 1)})")
                else:
                    expr = (f"(({v('in')} >> {by}) "
                            f"& {_hex((1 << width) - 1)})")
                self._store_result(out, o, x("in"), [expr], comment=comment)
            else:
                # ShiftRight reads the full (possibly wider) source slot:
                # Python shifts the unmasked value before masking.
                n = nw if name == "ShiftLeft" else max(nw, ni)
                out.emit(f"{{ /* {comment} */")
                out.indent += 1
                out.emit(f"uint8_t xx = {x('in')};")
                out.emit(f"{self._x(o)} = xx;")
                out.emit("if (xx) { "
                         + " ".join(f"{self._v(o, k)} = 0;"
                                    for k in range(self.limbs[o]))
                         + " } else {")
                out.indent += 1
                gi = ", ".join(self._gather(s("in"), n))
                out.emit(f"uint64_t ta[{n}] = {{{gi}}};")
                out.emit(f"uint64_t ts[{n}];")
                fn = "nk_shl" if name == "ShiftLeft" else "nk_shr"
                out.emit(f"{fn}(ts, ta, {n}, {by});")
                exprs = [self._masked(f"ts[{k}]", width, k)
                         for k in range(min(nw, n))]
                self._store_words(out, o, exprs)
                out.indent -= 1
                out.emit("}")
                out.indent -= 1
                out.emit("}")
        elif name == "Const":
            if not self.c._const_preloaded(cell):
                value = model.param(1, 0) & ((1 << width) - 1)
                o = s("out")
                lits = self._const_limbs(value, self.limbs[o], where)
                out.emit(" ".join(f"{self._v(o, k)} = {lit};"
                                  for k, lit in enumerate(lits))
                         + f" {self._x(o)} = 0;"
                         f"  /* {cell} = Const[{width}] (early reader) */")
        elif name == "fsm":
            o0 = sl[(cell, "_0")]
            go = s("go")
            expr = f"({self._nz(go)} ? 1u : 0u)"
            self._store_result(out, o0, x("go"), [expr],
                               comment=f"{cell} = fsm[{model.states}]")
            for state, tap in enumerate(self.c.extra_state[cell], start=1):
                self._copy_slot(out, sl[(cell, f"_{state}")], tap)
        elif name in ("Reg", "Register", "Delay", "Prev", "ContPrev",
                      "DspMac") or name in _MULT_LATENCY:
            self._width_ok(width, where)
            port = ("prev" if name in ("Prev", "ContPrev")
                    else "pout" if name == "DspMac" else "out")
            state = self.c.extra_state[cell][-1]
            self._copy_slot(out, sl[(cell, port)], state,
                            comment=f"{cell} = {name}[{width}] "
                                    f"registered output")
        else:  # pragma: no cover - registry names are closed above
            raise NativeUnavailable(f"no C template for {name}")

    def _store_words(self, out: codegen._Lines, dst: int,
                     exprs: List[str]) -> None:
        """Write ``exprs`` into the slot's limbs, zeroing any extras."""
        nd = self.limbs[dst]
        exprs = list(exprs) + ["0"] * (nd - len(exprs))
        out.emit(" ".join(f"{self._v(dst, k)} = {expr};"
                          for k, expr in enumerate(exprs)))

    # -- children --------------------------------------------------------------

    def _copy_cross(self, out: codegen._Lines, dst_prefix: str,
                    dst_em: "_CEmitter", dst_slot: int, src_prefix: str,
                    src_em: "_CEmitter", src_slot: int) -> None:
        """Zero-extending limb copy across two struct prefixes (each a C
        lvalue prefix ending in ``->`` or ``.``)."""
        nd = dst_em.limbs[dst_slot]
        ns = src_em.limbs[src_slot]
        dw = dst_em.word_of[dst_slot]
        sw = src_em.word_of[src_slot]
        parts = [f"{dst_prefix}v[{dw + k}] = "
                 + (f"{src_prefix}v[{sw + k}];" if k < ns else "0;")
                 for k in range(nd)]
        parts.append(f"{dst_prefix}x[{dst_slot}] = "
                     f"{src_prefix}x[{src_slot}];")
        out.emit(" ".join(parts))

    def _emit_child_copies(self, out: codegen._Lines, node,
                           inputs: bool) -> None:
        child_em = self.by_name[node.component]
        child_prefix = f"st->c_{self.c._ident(node.cell)}."
        items = node.in_items if inputs else node.out_items
        for port, key in items:
            parent_slot = self.c.slots[key]
            child_slot = child_em.c.slots[(None, port)]
            if inputs:
                self._copy_cross(out, child_prefix, child_em, child_slot,
                                 "st->", self, parent_slot)
            else:
                self._copy_cross(out, "st->", self, parent_slot,
                                 child_prefix, child_em, child_slot)

    def _emit_child(self, out: codegen._Lines, node) -> None:
        c = self.c
        ident = c._ident(node.cell)
        child_id = self.comp_ids[node.component]
        out.emit(f"/* child {node.cell} */")
        self._emit_child_copies(out, node, inputs=True)
        out.emit(f"{{ int rc = settle_c{child_id}(&st->c_{ident}, "
                 f"eplan, ev, ex); if (rc) return rc; }}")
        self._emit_child_copies(out, node, inputs=False)

    # -- driver groups ---------------------------------------------------------

    def _emit_group(self, out: codegen._Lines, group) -> None:
        c = self.c
        d = c.slots[group.dst_key]
        nd = self.limbs[d]
        where = f"{c.name}: group {group.dst}"
        if c._preloaded(group):
            return
        if len(group.assigns) == 1:
            assign = group.assigns[0]
            exprs, sx = self._src_limbs(assign, nd, where)
            if assign.guard_keys is None:
                out.emit(" ".join(f"{self._v(d, k)} = {expr};"
                                  for k, expr in enumerate(exprs))
                         + f" {self._x(d)} = {sx};"
                         f"  /* {group.dst} = {assign.assignment.src} */")
                return
            out.emit(f"{{ /* {group.dst} = guarded */")
            out.indent += 1
            out.emit("int act = 0, unk = 0;")
            self._guard_lines(out, assign.guard_keys)
            if nd == 1:
                out.emit(f"if (act) {{ {self._v(d)} = {sx} ? 0 : "
                         f"{exprs[0]}; {self._x(d)} = {sx}; }}")
            else:
                out.emit("if (act) {")
                out.indent += 1
                out.emit(f"uint8_t sxv = {sx};")
                out.emit(f"{self._x(d)} = sxv;")
                out.emit("if (sxv) { "
                         + " ".join(f"{self._v(d, k)} = 0;"
                                    for k in range(nd))
                         + " } else { "
                         + " ".join(f"{self._v(d, k)} = {expr};"
                                    for k, expr in enumerate(exprs))
                         + " }")
                out.indent -= 1
                out.emit("}")
            zeros = " ".join(f"{self._v(d, k)} = 0;" for k in range(nd))
            out.emit(f"else {{ {zeros} {self._x(d)} = 1; }}")
            out.emit("(void)unk;")
            out.indent -= 1
            out.emit("}")
            return
        # Multi-driven port: replicate _resolve_slots exactly, capturing the
        # referenced slots for Python-side error replay on conflict.
        plan = (c.name, group,
                tuple((tuple(c.slots[key] for key in assign.guard_keys)
                       if assign.guard_keys is not None else None,
                       (c.slots[assign.src_key]
                        if assign.src_key is not None else None),
                       assign.src_const, assign)
                      for assign in group.assigns))
        capture: List[Tuple[int, int]] = []
        for assign in group.assigns:
            for key in assign.guard_keys or ():
                slot = c.slots[key]
                capture.append((slot, self.limbs[slot]))
            if assign.src_key is not None:
                slot = c.slots[assign.src_key]
                capture.append((slot, self.limbs[slot]))
            else:
                self._const_limbs(assign.src_const, nd, where)
        pid = self.plans.add(plan, capture)
        K = len(group.assigns)
        out.emit(f"{{ /* {group.dst}: {K} drivers (plan {pid}) */")
        out.indent += 1
        out.emit("int has_c = 0, conflict = 0, nmaybe = 0;")
        out.emit(f"uint64_t cval[{nd}] = {{0}}; "
                 f"uint64_t mv[{K * nd}]; uint8_t mx[{K}];")
        for assign in group.assigns:
            exprs, sx = self._src_limbs(assign, nd, where)
            out.emit("{")
            out.indent += 1
            if assign.guard_keys is None:
                out.emit("int act = 1, poss = 0;")
            else:
                out.emit("int act = 0, unk = 0, poss;")
                self._guard_lines(out, assign.guard_keys)
                out.emit("poss = !act && unk;")
            out.emit("if (act || poss) {")
            out.indent += 1
            out.emit(f"uint64_t sv[{nd}] = {{{', '.join(exprs)}}}; "
                     f"uint8_t sx = {sx};")
            out.emit("if (act) {")
            out.indent += 1
            out.emit("if (!sx) {")
            differs = " || ".join(f"sv[{k}] != cval[{k}]"
                                  for k in range(nd))
            out.emit(f"    if (has_c && ({differs})) conflict = 1;")
            copies = " ".join(f"cval[{k}] = sv[{k}];" for k in range(nd))
            out.emit(f"    if (!has_c) {{ has_c = 1; {copies} }}")
            out.emit("}")
            out.indent -= 1
            out.emit("} else { "
                     + " ".join(f"mv[nmaybe * {nd} + {k}] = sx ? 0 : sv[{k}];"
                                for k in range(nd))
                     + " mx[nmaybe] = sx; nmaybe++; }")
            out.indent -= 1
            out.emit("}")
            out.indent -= 1
            out.emit("}")
        out.emit("if (conflict) {")
        out.indent += 1
        out.emit(f"eplan[0] = {pid};")
        position = 0
        for ordinal, (slot, limbs) in enumerate(capture):
            words = " ".join(f"ev[{position + k}] = {self._v(slot, k)};"
                             for k in range(limbs))
            out.emit(f"{words} ex[{ordinal}] = {self._x(slot)};")
            position += limbs
        out.emit(f"return {pid + 1};")
        out.indent -= 1
        out.emit("}")
        # No concrete active value, or a possible driver that may differ
        # from it, reads X; so does an undriven port.
        zeros = " ".join(f"{self._v(d, k)} = 0;" for k in range(nd))
        out.emit("int rx = !has_c;")
        out.emit("if (nmaybe) {")
        out.emit("    int ok = has_c;")
        disagrees = " || ".join(f"mv[i * {nd} + {k}] != cval[{k}]"
                                for k in range(nd))
        out.emit(f"    for (int i = 0; i < nmaybe; i++) "
                 f"if (mx[i] || {disagrees}) ok = 0;")
        out.emit("    if (!ok) rx = 1;")
        out.emit("}")
        out.emit(f"{self._x(d)} = (uint8_t)rx;")
        if nd == 1:
            out.emit(f"{self._v(d)} = rx ? 0 : cval[0];")
        else:
            out.emit("if (rx) { " + zeros + " } else { "
                     + " ".join(f"{self._v(d, k)} = cval[{k}];"
                                for k in range(nd))
                     + " }")
        out.indent -= 1
        out.emit("}")

    # -- tick ------------------------------------------------------------------

    def _emit_prim_tick(self, out: codegen._Lines, node) -> None:
        c = self.c
        sl = c.slots
        model = node.model
        cell = node.cell
        name = model.name
        width = model.width
        where = f"{c.name}.{cell} = {name}"

        def v(port: str, k: int = 0) -> str:
            return self._v(sl[(cell, port)], k)

        def x(port: str) -> str:
            return self._x(sl[(cell, port)])

        if name in ("Reg", "Register", "Prev"):
            self._width_ok(width, where)
            d = c.extra_state[cell][0]
            n = self._nl(width)
            exprs = self._gather_masked(sl[(cell, "in")], n, width)
            out.emit(f"{{ /* {cell} = {name}[{width}] */")
            out.indent += 1
            out.emit(f"if ({x('en')}) {{ {self._x(d)} = 1; "
                     + " ".join(f"{self._v(d, k)} = 0;"
                                for k in range(self.limbs[d]))
                     + " }")
            if self.limbs[d] == 1:
                out.emit(f"else if ({self._nz(sl[(cell, 'en')])}) {{ "
                         f"{self._x(d)} = {x('in')}; "
                         f"{self._v(d)} = {x('in')} ? 0 : {exprs[0]}; }}")
            else:
                out.emit(f"else if ({self._nz(sl[(cell, 'en')])}) {{")
                out.indent += 1
                self._store_result(out, d, x("in"), exprs)
                out.indent -= 1
                out.emit("}")
            out.indent -= 1
            out.emit("}")
        elif name in ("Delay", "ContPrev"):
            self._width_ok(width, where)
            d = c.extra_state[cell][0]
            n = self._nl(width)
            exprs = self._gather_masked(sl[(cell, "in")], n, width)
            self._store_result(out, d, x("in"), exprs,
                               comment=f"{cell} = {name}[{width}]")
        elif name in _MULT_LATENCY:
            self._width_ok(width, where)
            stages = c.extra_state[cell]  # newest .. oldest
            n = self._nl(width)
            out.emit(f"{{ /* {cell} = {name}[{width}] */")
            out.indent += 1
            out.emit(f"uint8_t px = {x('left')} | {x('right')};")
            if n == 1:
                mask = (1 << width) - 1
                out.emit(f"uint64_t pv = px ? 0 : "
                         f"(({v('left')} * {v('right')}) & {_hex(mask)});")
            else:
                out.emit(f"uint64_t pv[{n}] = {{0}};")
                out.emit("if (!px) {")
                out.indent += 1
                ga = ", ".join(self._gather(sl[(cell, "left")], n))
                gb = ", ".join(self._gather(sl[(cell, "right")], n))
                out.emit(f"uint64_t ta[{n}] = {{{ga}}};")
                out.emit(f"uint64_t tb[{n}] = {{{gb}}};")
                out.emit(f"nk_mul(pv, ta, tb, {n});")
                top_mask = self._limb_mask(width, n - 1)
                if top_mask is not None:
                    out.emit(f"pv[{n - 1}] &= {_hex(top_mask)};")
                out.indent -= 1
                out.emit("}")
            for older, newer in zip(reversed(stages[1:]),
                                    reversed(stages[:-1])):
                self._copy_slot(out, older, newer)
            if n == 1:
                out.emit(f"{self._v(stages[0])} = pv; "
                         f"{self._x(stages[0])} = px;")
            else:
                out.emit(f"{self._x(stages[0])} = px; "
                         + " ".join(f"{self._v(stages[0], k)} = pv[{k}];"
                                    for k in range(n)))
            out.indent -= 1
            out.emit("}")
        elif name == "DspMac":
            self._width_ok(width, where)
            d = c.extra_state[cell][0]
            n = self._nl(width)
            dzero = " ".join(f"{self._v(d, k)} = 0;"
                             for k in range(self.limbs[d]))
            out.emit(f"{{ /* {cell} = DspMac[{width}] */")
            out.indent += 1
            out.emit(f"if ({x('ce')}) {{ {self._x(d)} = 1; {dzero} }}")
            out.emit(f"else if ({self._nz(sl[(cell, 'ce')])}) {{")
            out.indent += 1
            out.emit(f"if ({x('a')} || {x('b')}) {{ "
                     f"{self._x(d)} = 1; {dzero} }}")
            if n == 1:
                mask = (1 << width) - 1
                out.emit(f"else {{ uint64_t acc = {x('pin')} ? 0 : "
                         f"{v('pin')};")
                out.emit(f"    {self._v(d)} = ({v('a')} * {v('b')} + acc) "
                         f"& {_hex(mask)}; {self._x(d)} = 0; }}")
            else:
                out.emit("else {")
                out.indent += 1
                ga = ", ".join(self._gather(sl[(cell, "a")], n))
                gb = ", ".join(self._gather(sl[(cell, "b")], n))
                gp = ", ".join(f"({x('pin')} ? 0 : {expr})"
                               for expr in self._gather(sl[(cell, "pin")],
                                                        n))
                out.emit(f"uint64_t ta[{n}] = {{{ga}}};")
                out.emit(f"uint64_t tb[{n}] = {{{gb}}};")
                out.emit(f"uint64_t tacc[{n}] = {{{gp}}};")
                out.emit(f"uint64_t tp[{n}]; uint64_t tr[{n}];")
                out.emit(f"nk_mul(tp, ta, tb, {n});")
                out.emit(f"nk_add(tr, tp, tacc, {n});")
                exprs = [self._masked(f"tr[{k}]", width, k)
                         for k in range(n)]
                self._store_words(out, d, exprs)
                out.emit(f"{self._x(d)} = 0;")
                out.indent -= 1
                out.emit("}")
            out.indent -= 1
            out.emit("}")
            out.indent -= 1
            out.emit("}")
        elif name == "fsm":
            if model.states > 1:
                taps = c.extra_state[cell]  # _1 .. _{states-1}
                out.emit(f"/* {cell} = fsm[{model.states}] shift */")
                for k in range(len(taps) - 1, 0, -1):
                    self._copy_slot(out, taps[k], taps[k - 1])
                self._copy_slot(out, taps[0], sl[(cell, "_0")])

    def emit_tick(self, out: codegen._Lines) -> None:
        c = self.c
        out.emit(f"static void tick_c{self.cid}(S{self.cid}* st) {{")
        out.indent += 1
        out.emit("(void)st;")
        for node in c.plan.prim_nodes:
            self._emit_prim_tick(out, node)
        for node in c.plan.child_nodes:
            child_id = self.comp_ids[node.component]
            out.emit(f"tick_c{child_id}(&st->c_{c._ident(node.cell)});"
                     f"  /* child {node.cell} */")
        out.indent -= 1
        out.emit("}")
        out.emit()

class _KernelLayout:
    """Marshalling metadata for one generated translation unit: how the
    Python wrapper addresses slots, limb words and columnar buffers."""

    def __init__(self, slot_map: Dict[_Key, int],
                 slot_meta: Dict[_Key, Tuple[int, int, int]],
                 input_ports: List[Tuple[str, int, int]], in_words: int,
                 output_ports: List[Tuple[str, int, int]], out_words: int,
                 output_names: List[str]) -> None:
        self.slot_map = slot_map          # top key -> slot index
        self.slot_meta = slot_meta        # top key -> (slot, word, limbs)
        self.input_ports = input_ports    # (name, width, limbs)
        self.in_words = in_words          # total input words per cycle
        self.output_ports = output_ports  # (name, word base, limbs)
        self.out_words = out_words        # total output words per cycle
        self.output_names = output_names


def generate_c_source(engine) -> Tuple[str, _KernelLayout, _PlanRegistry]:
    """Generate the C translation unit for ``engine``'s hierarchy.

    Returns ``(source, layout, plans)``; raises
    :class:`NativeUnavailable` for any netlist the limb-spill tier cannot
    represent exactly (black boxes, unscheduled components, any value
    wider than 256 bits)."""
    plans = engine._reachable_plans()
    for plan in plans:
        if plan.schedule is None:
            raise NativeUnavailable(f"{plan.name}: {plan.fallback_reason}")
        for prim in plan.prim_nodes:
            if not _is_stdlib(prim.model):
                # The primitive *type* rides along unquoted so coverage can
                # bin all fallbacks of one black box into a single cell.
                raise NativeUnavailable(
                    f"black-box primitive {prim.model.name}: {prim.cell!r} "
                    f"in {plan.name}")
    for port in list(engine.component.inputs) + list(engine.component.outputs):
        if port.width > 64 * _MAX_LIMBS:
            raise NativeUnavailable(
                f"{engine.component.name}: port {port.name} is "
                f"{port.width} bits wide (native limb spill caps at "
                f"{64 * _MAX_LIMBS})")
    comp_ids = {plan.name: index for index, plan in enumerate(plans)}
    compilers: "OrderedDict[str, _ComponentCompiler]" = OrderedDict(
        (plan.name, _ComponentCompiler(plan))
        for plan in plans)
    limb_tables = plan_slot_limbs(compilers)
    for name, table in limb_tables.items():
        for slot, limbs in table.items():
            if limbs > _MAX_LIMBS:
                raise NativeUnavailable(
                    f"{name}: slot {slot} is {limbs * 64} bits wide "
                    f"(native limb spill caps at {64 * _MAX_LIMBS})")
    registry = _PlanRegistry()
    emitters: Dict[str, _CEmitter] = {}
    structs = codegen._Lines()
    bodies = codegen._Lines()
    for plan in plans:
        name = plan.name
        emitter = _CEmitter(compilers[name], comp_ids, limb_tables[name],
                            registry, emitters)
        emitters[name] = emitter
        emitter.emit_struct(structs)
        emitter.emit_reset(bodies)
        emitter.emit_settle(bodies)
        emitter.emit_tick(bodies)
    top_em = emitters[engine.component.name]
    top = top_em.c
    tid = top_em.cid

    widths = {port.name: port.width for port in engine.component.inputs}
    # (name, width, limbs, slot, word, input word base)
    in_meta: List[Tuple[str, int, int, int, int, int]] = []
    in_base = 0
    for name in engine._input_names:
        width = widths.get(name, 64)
        limbs = max(1, (width + 63) // 64)
        slot = top.slots[(None, name)]
        in_meta.append((name, width, limbs, slot, top_em.word_of[slot],
                        in_base))
        in_base += limbs
    # (name, limbs, slot, word, output word base) — output columns carry
    # every limb of the *slot* (which driver groups may have widened past
    # the port width) so the Python side sees the same unmasked values the
    # interpreter keeps.
    out_meta: List[Tuple[str, int, int, int, int]] = []
    out_base = 0
    for port in engine.component.outputs:
        slot = top.slots[(None, port.name)]
        limbs = top_em.limbs[slot]
        out_meta.append((port.name, limbs, slot, top_em.word_of[slot],
                         out_base))
        out_base += limbs
    output_names = [port.name for port in engine.component.outputs]

    entry = codegen._Lines()
    entry.emit(f"int64_t k_state_bytes(void) {{ "
               f"return (int64_t)sizeof(S{tid}); }}")
    entry.emit()
    entry.emit("void k_reset(void* p, int64_t nl) {")
    entry.emit(f"    for (int64_t l = 0; l < nl; l++) "
               f"reset_c{tid}((S{tid}*)p + l);")
    entry.emit("}")
    entry.emit()
    entry.emit("void k_peek(void* p, int64_t slot, int64_t word, "
               "uint64_t* v, uint8_t* x) {")
    entry.emit(f"    S{tid}* st = (S{tid}*)p; "
               f"*v = st->v[word]; *x = st->x[slot];")
    entry.emit("}")
    entry.emit()
    entry.emit("int64_t k_run_lanes(void* p, int64_t nl, int64_t ncy, "
               "const int64_t* lens, const uint64_t* iv, const uint8_t* ix, "
               "uint64_t* ov, uint8_t* ox, int64_t* eplan, int64_t* elane, "
               "uint64_t* ev, uint8_t* ex) {")
    entry.indent += 1
    entry.emit("for (int64_t i = 0; i < ncy; i++) {")
    entry.indent += 1
    entry.emit("for (int64_t l = 0; l < nl; l++) {")
    entry.indent += 1
    entry.emit("if (i >= lens[l]) continue;  /* this lane's stream ended */")
    entry.emit(f"S{tid}* st = (S{tid}*)p + l;")
    for j, (name, width, limbs, slot, word, base) in enumerate(in_meta):
        port_mask = (1 << width) - 1
        entry.emit(f"{{ uint8_t fx = ix[({j} * ncy + i) * nl + l];"
                   f"  /* input {name} */")
        entry.indent += 1
        parts = [f"st->x[{slot}] = fx;"]
        for k in range(limbs):
            mask = (port_mask >> (64 * k)) & _M64
            parts.append(f"st->v[{word + k}] = fx ? 0 : "
                         f"(iv[({base + k} * ncy + i) * nl + l] "
                         f"& {_hex(mask)});")
        for k in range(limbs, top_em.limbs[slot]):
            parts.append(f"st->v[{word + k}] = 0;")
        entry.emit(" ".join(parts))
        entry.indent -= 1
        entry.emit("}")
    entry.emit(f"if (settle_c{tid}(st, eplan, ev, ex)) "
               f"{{ elane[0] = l; return i; }}")
    for j, (name, limbs, slot, word, base) in enumerate(out_meta):
        stores = " ".join(
            f"ov[({base + k} * ncy + i) * nl + l] = st->v[{word + k}];"
            for k in range(limbs))
        entry.emit(f"{stores} ox[({j} * ncy + i) * nl + l] = "
                   f"st->x[{slot}];  /* output {name} */")
    entry.emit(f"tick_c{tid}(st);")
    entry.indent -= 1
    entry.emit("}")
    entry.indent -= 1
    entry.emit("}")
    entry.emit("return -1;")
    entry.indent -= 1
    entry.emit("}")

    header = "\n".join([
        "/* Generated native simulation kernel — do not edit;",
        "   see repro/sim/native.py. */",
        "#include <stdint.h>",
        "#include <string.h>",
        "",
        _NK_HELPERS,
        "",
    ])
    source = "\n".join([header, structs.text(), "", bodies.text(), "",
                        entry.text(), ""])
    layout = _KernelLayout(
        slot_map=dict(top.slots),
        slot_meta={key: (slot, top_em.word_of[slot], top_em.limbs[slot])
                   for key, slot in top.slots.items()},
        input_ports=[(name, width, limbs)
                     for name, width, limbs, _, _, _ in in_meta],
        in_words=in_base,
        output_ports=[(name, base, limbs)
                      for name, limbs, _, _, base in out_meta],
        out_words=out_base,
        output_names=output_names)
    return source, layout, registry


# ---------------------------------------------------------------------------
# Build + load
# ---------------------------------------------------------------------------


class NativeKernelProgram:
    """One compiled-and-loaded shared object for a netlist digest."""

    def __init__(self, digest: str, lib, layout: _KernelLayout,
                 plans: _PlanRegistry, disk_hit: bool) -> None:
        self.digest = digest
        self.lib = lib
        self.slot_map = layout.slot_map
        self.slot_meta = layout.slot_meta
        self.output_names = layout.output_names
        self.input_ports = layout.input_ports
        self.in_words = layout.in_words
        self.output_ports = layout.output_ports
        self.out_words = layout.out_words
        self.plans = plans
        self.disk_hit = disk_hit
        self.state_bytes = int(lib.k_state_bytes())

    def instance(self) -> "NativeKernel":
        return NativeKernel(self)


def _declare(lib) -> None:
    u64p = ctypes.POINTER(ctypes.c_uint64)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    i64p = ctypes.POINTER(ctypes.c_int64)
    lib.k_state_bytes.restype = ctypes.c_int64
    lib.k_state_bytes.argtypes = []
    lib.k_reset.restype = None
    lib.k_reset.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    lib.k_peek.restype = None
    lib.k_peek.argtypes = [ctypes.c_void_p, ctypes.c_int64,
                           ctypes.c_int64, u64p, u8p]
    lib.k_run_lanes.restype = ctypes.c_int64
    lib.k_run_lanes.argtypes = [ctypes.c_void_p, ctypes.c_int64,
                                ctypes.c_int64, i64p, u64p, u8p, u64p, u8p,
                                i64p, i64p, u64p, u8p]


class NativeKernel:
    """A live native kernel instance: its own C state buffer, one netlist.

    Exposes what the engine needs from a kernel (``reset``/``peek``) plus
    the two columnar batch entries, :meth:`run_columns` over the
    instance's own state and :meth:`run_lanes_columns` over a fresh lane
    block; both run through the one C entry ``k_run_lanes``."""

    __slots__ = ("_program", "_lib", "_state", "_ptr", "_n",
                 "_err_plan", "_err_lane", "_err_v", "_err_x")

    def __init__(self, program: NativeKernelProgram) -> None:
        self._program = program
        self._lib = program.lib
        self._state = ctypes.create_string_buffer(program.state_bytes)
        self._ptr = ctypes.cast(self._state, ctypes.c_void_p)
        # Per-instance conflict-capture buffers, passed into every
        # k_run_lanes call: no shared mutable state lives in the shared
        # object, so instances of one program are safe to run on separate
        # threads.
        self._err_plan = (ctypes.c_int64 * 1)(-1)
        self._err_lane = (ctypes.c_int64 * 1)(-1)
        self._err_v = (ctypes.c_uint64 * program.plans.max_capture_words)()
        self._err_x = (ctypes.c_uint8 * program.plans.max_capture_slots)()
        self._lib.k_reset(self._ptr, 1)
        self._n = 0

    def reset(self) -> None:
        self._lib.k_reset(self._ptr, 1)
        self._n = 0

    def peek(self, key: _Key) -> Value:
        meta = self._program.slot_meta.get(key)
        if meta is None:
            return X
        slot, word, limbs = meta
        v = ctypes.c_uint64()
        x = ctypes.c_uint8()
        value = 0
        for k in range(limbs):
            self._lib.k_peek(self._ptr, slot, word + k,
                             ctypes.byref(v), ctypes.byref(x))
            value |= v.value << (64 * k)
        return X if x.value else value

    # -- running ---------------------------------------------------------------

    def run_columns(self, cycles: int,
                    columns: Dict[str, Tuple[Sequence[int], Sequence[int]]]
                    ) -> Dict[str, Tuple[Sequence[int], Sequence[int]]]:
        """Columnar batch execution: per-input-port ``(values, xflags)``
        columns of length ``cycles`` in, per-output-port columns out, one
        C call over the instance's own state.  Narrow (one limb) output
        columns are zero-copy views (``memoryview``/``bytes``) supporting
        indexing and strided slicing; wide outputs are materialized int
        lists (same indexing surface)."""
        return self._run(self._ptr, 1, cycles, columns, (cycles,))

    def run_lanes_columns(self, cycles: int, n_lanes: int,
                          columns: Dict[str, Tuple[Sequence[int],
                                                   Sequence[int]]],
                          lengths: Sequence[int]
                          ) -> Dict[str, Tuple[Sequence[int],
                                               Sequence[int]]]:
        """Lane batch execution: per-input-port flat columns of length
        ``cycles * n_lanes`` in lane-major-within-cycle order (flat index
        ``cycle * n_lanes + lane``), same shape out.  One C call drives
        all lanes through a *fresh* block of ``n_lanes`` consecutive state
        structs; lane ``l`` runs its first ``lengths[l]`` cycles and its
        later output entries read X.  The instance's own state is
        untouched.  A driver conflict in any lane raises the ``...
        (lane N)`` message."""
        state = ctypes.create_string_buffer(
            self._program.state_bytes * max(1, n_lanes))
        ptr = ctypes.cast(state, ctypes.c_void_p)
        self._lib.k_reset(ptr, n_lanes)
        return self._run(ptr, n_lanes, cycles, columns, lengths)

    def _marshal_inputs(self, n: int, columns
                        ) -> Tuple["array", bytearray]:
        """Flatten per-port ``(values, xflags)`` columns into the C input
        buffers, one 64-bit row per port limb (port-major, limb-minor)."""
        ivbuf = array("Q")
        ixbuf = bytearray()
        zeros = None
        for name, _width, limbs in self._program.input_ports:
            column = columns.get(name)
            if column is None:
                if zeros is None:
                    zeros = array("Q", bytes(8 * n))
                for _ in range(limbs):
                    ivbuf += zeros
                ixbuf += b"\x01" * n
                continue
            values, xflags = column
            if limbs == 1:
                base = len(ivbuf)
                try:
                    if isinstance(values, array) and values.typecode == "Q":
                        ivbuf += values
                    else:
                        # Element by element: ``extend`` refuses an array
                        # of any other typecode.
                        ivbuf.extend(iter(values))
                except OverflowError:
                    # Out-of-range stimulus: truncate to 64 bits (the port
                    # mask in C truncates further, matching the engine's
                    # input-truncation contract).  ``extend``
                    # appends element-by-element, so the in-range prefix it
                    # already copied must be dropped before re-extending or
                    # the column misaligns.
                    del ivbuf[base:]
                    ivbuf.extend([value & _M64 for value in values])
            else:
                for k in range(limbs):
                    shift = 64 * k
                    # Python's arithmetic right shift makes negative
                    # stimulus truncate to two's complement limbs, the
                    # same truncation the one-limb path applies.
                    ivbuf.extend([(value >> shift) & _M64
                                  for value in values])
            ixbuf += (xflags if isinstance(xflags, (bytes, bytearray))
                      else bytes(xflags))
        return ivbuf, ixbuf

    def _split_outputs(self, n: int, ov, ox
                       ) -> Dict[str, Tuple[Sequence[int], Sequence[int]]]:
        """Slice the flat output buffers into per-port columns; wide ports
        reassemble their limb rows into Python ints."""
        out: Dict[str, Tuple[Sequence[int], Sequence[int]]] = {}
        for j, (name, base, limbs) in enumerate(self._program.output_ports):
            xfl = ox[j * n:(j + 1) * n]
            if limbs == 1:
                vals: Sequence[int] = ov[base * n:base * n + n]
            else:
                wide = list(ov[base * n:base * n + n])
                for k in range(1, limbs):
                    shift = 64 * k
                    row = ov[(base + k) * n:(base + k) * n + n]
                    for i, high in enumerate(row):
                        if high:
                            wide[i] |= high << shift
                vals = wide
            out[name] = (vals, xfl)
        return out

    def _run(self, state, n_lanes: int, cycles: int, columns,
             lengths: Sequence[int]
             ) -> Dict[str, Tuple[Sequence[int], Sequence[int]]]:
        """Marshal ``columns`` into the flat input buffers, run the whole
        batch in one ``k_run_lanes`` call over the ``n_lanes`` state
        structs at ``state`` (lane ``l`` for ``lengths[l]`` cycles) and
        split the outputs into per-port columns; an entry no lane wrote
        reads X.  ``state`` is either the instance's own state (one lane,
        whose cycle count advances) or a fresh lane block."""
        program = self._program
        n = cycles * n_lanes
        ivbuf, ixbuf = self._marshal_inputs(n, columns)
        niw = program.in_words
        nip = len(program.input_ports)
        now = program.out_words
        nop = len(program.output_ports)
        iv = ((ctypes.c_uint64 * (n * niw)).from_buffer(ivbuf)
              if niw and n else (ctypes.c_uint64 * 0)())
        ix = ((ctypes.c_uint8 * (n * nip)).from_buffer(ixbuf)
              if nip and n else (ctypes.c_uint8 * 0)())
        lens = (ctypes.c_int64 * max(1, n_lanes))(*lengths)
        ovbuf = bytearray(8 * n * now)
        oxbuf = bytearray(b"\x01") * (n * nop)
        ov = ((ctypes.c_uint64 * (n * now)).from_buffer(ovbuf)
              if now and n else (ctypes.c_uint64 * 0)())
        ox = ((ctypes.c_uint8 * (n * nop)).from_buffer(oxbuf)
              if nop and n else (ctypes.c_uint8 * 0)())
        rc = self._lib.k_run_lanes(state, n_lanes, cycles, lens, iv, ix,
                                   ov, ox, self._err_plan, self._err_lane,
                                   self._err_v, self._err_x)
        del iv, ix, ov, ox  # release from_buffer views before reuse
        own = state is self._ptr
        if rc >= 0:
            self._raise_conflict(self._n + rc if own else rc, lanes=not own)
        if own:
            self._n += cycles
        return self._split_outputs(n, memoryview(ovbuf).cast("Q"),
                                   bytes(oxbuf))

    def _raise_conflict(self, cycle: int, lanes: bool) -> None:
        """Raise the ``DriverConflictError`` the C entry reported: a lane
        batch names the lane; a scalar run replays the failing group
        resolution in Python to raise the exact interpreter/compiled-tier
        message, driver values included."""
        pid = int(self._err_plan[0])
        plan = self._program.plans.plans[pid]
        if lanes:
            raise DriverConflictError(plan[0], plan[1].dst, cycle,
                                      f" (lane {int(self._err_lane[0])})")
        capture = self._program.plans.captures[pid]
        slots: Dict[int, Value] = {}
        position = 0
        for ordinal, (index, limbs) in enumerate(capture):
            value = 0
            for k in range(limbs):
                value |= int(self._err_v[position + k]) << (64 * k)
            slots[index] = X if self._err_x[ordinal] else value
            position += limbs
        _resolve_slots(slots, plan, cycle)
        raise DriverConflictError(  # pragma: no cover - replay always raises
            plan[0], plan[1].dst, cycle, "")


# ---------------------------------------------------------------------------
# Digest-keyed caches
# ---------------------------------------------------------------------------

_CACHE = DigestCache(256)
_DISK_HITS = 0


def native_cache_stats() -> Dict[str, int]:
    """Process-wide native program cache counters: the
    :class:`~repro.core.store.DigestCache` counters plus ``disk_hits``,
    the misses the ``.so`` store served without running ``cc``."""
    return dict(_CACHE.stats(), disk_hits=_DISK_HITS)


def clear_native_cache() -> None:
    """Drop every loaded native program (tests and benchmarks), the
    compiler-probe memo (so a changed ``REPRO_CC``/``PATH`` is re-probed)
    and the store memo (so a changed cache root is re-resolved).  The
    on-disk ``.so`` store is left alone — it is the point."""
    global _DISK_HITS
    _CACHE.clear()
    _COMPILER_CACHE.clear()
    _STORE_MEMO.clear()
    _DISK_HITS = 0


def _compile_so(source: str, c_path: Path, so_path: Path,
                compiler: str) -> None:
    c_path.write_text(source)
    tmp = so_path.with_name(f"{so_path.stem}.{os.getpid()}.tmp.so")
    command = [compiler, *_CFLAGS, "-o", str(tmp), str(c_path)]
    try:
        _faults.cc_hang()  # injected compiler hang == the timeout below
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=120)
    except (OSError, subprocess.TimeoutExpired) as error:
        raise NativeUnavailable(f"C compiler failed to run: {error}")
    if proc.returncode != 0:
        detail = (proc.stderr or proc.stdout or "").strip()
        raise NativeUnavailable(
            f"C compilation failed: {detail[:300]}")
    os.replace(tmp, so_path)


def native_for(engine) -> Tuple[NativeKernelProgram, bool]:
    """The native kernel program for ``engine``'s netlist: ``(program,
    cached)``.  ``cached`` is true for both in-memory hits and on-disk
    store hits.  Raises :class:`NativeUnavailable` when the netlist is
    native-ineligible or no C compiler is available."""
    global _DISK_HITS
    digest = netlist_digest(engine)
    cached = _CACHE.get(digest)
    if cached is not None:
        return cached, True
    # Eligibility before the compiler probe: an ineligible netlist reports
    # its own reason on a host without a compiler too.
    source, layout, plans = generate_c_source(engine)
    compiler = find_compiler()
    if compiler is None:
        raise NativeUnavailable("no C compiler (cc/gcc/clang) on PATH")
    store = _native_store()
    flags = hashlib.sha256(" ".join(_CFLAGS).encode()).hexdigest()[:8]
    text = hashlib.sha256(source.encode()).hexdigest()[:32]
    key = f"native_{flags}_{text}"
    so_path = store.get_path("native", key)
    disk_hit = so_path is not None
    if not disk_hit:
        # Build in a private scratch directory, then publish atomically
        # into the store.  A failed publish (disk full, injected fault)
        # degrades to running the .so out of the scratch directory: this
        # process still gets its kernel, nothing corrupt persists.
        build_dir = Path(tempfile.mkdtemp(prefix="repro-native-build-"))
        scratch_so = build_dir / f"{key}.so"
        try:
            _compile_so(source, build_dir / f"{key}.c", scratch_so,
                        compiler)
        except NativeUnavailable:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise
        published = store.put_file("native", key, scratch_so)
        so_path = store.get_path("native", key) if published else None
        if so_path is not None:
            shutil.rmtree(build_dir, ignore_errors=True)
        else:
            so_path = scratch_so  # degraded: private, this-process-only
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError as error:
        raise NativeUnavailable(f"failed to load native kernel: {error}")
    _declare(lib)
    program = NativeKernelProgram(digest, lib, layout, plans, disk_hit)
    _CACHE.put(digest, program)
    if disk_hit:
        _DISK_HITS += 1
    return program, disk_hit
