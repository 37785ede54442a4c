"""The benchmark's four workloads, each driving the public ``repro`` API the
way a user does.

A workload is built from the workload seed alone: every stream seed, edit
constant and stimulus seed below derives from it, so one seed always gives
the same inputs.  ``setup`` pays the one-time costs a user pays before the
first result (imports, cold compile, the first kernel or ``.so`` build) and
``op`` runs one timed operation, checking its outputs inside the timed
region because users pay for the check.  ``repro`` is imported inside
``setup`` so that the import is part of the measured set-up time.

Operations are timed in blocks of ``block_ops``; ``new_block`` runs before
each block, outside the timed region.  Peak memory is read after
``rss_ops`` operations.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Callable, Dict, Set, Tuple


class TierError(Exception):
    """The simulation tier the workload measures did not run: a silent
    fallback would measure a different program."""


class Skip(Exception):
    """The host cannot run this workload (no C compiler)."""


def _require_compiler() -> None:
    from repro.sim import native
    if not native.compiler_available():
        raise Skip("no C compiler (cc/gcc/clang or REPRO_CC) on this host; "
                   "the native-tier workloads need one")


class FuzzAddMult:
    """``fuzz_against_golden`` on the Figure 4 ``AddMult`` design on the
    native tier, a fresh stream seed per call, every transaction checked
    against the golden model."""

    name = "fuzz-addmult"
    count = 4000
    lanes = 1
    block_ops = 100
    rss_ops = 100

    def __init__(self, seed: int, wrong_golden: bool = False) -> None:
        self.stream_base = random.Random(f"{self.name}:{seed}").getrandbits(40)
        self.calls = 0
        self.offset = 1 if wrong_golden else 0
        self.edits = 0
        self.seeds = 0

    def setup(self) -> None:
        from repro.designs import addmult_program, golden
        from repro.harness import driver, fuzz
        _require_compiler()
        self._fuzz = fuzz
        offset = self.offset

        def expected(transaction: Dict[str, int]) -> Dict[str, int]:
            value = golden.addmult(transaction["a"], transaction["b"],
                                   transaction["c"])
            return {"out": (value + offset) & 0xFFFFFFFF}

        self._golden = expected
        self.harness = driver.harness_for(addmult_program(), "AddMult",
                                          mode="native")
        self.op()  # builds the .so

    def gate(self) -> None:
        simulator = self.harness._simulator
        if self.lanes == 1:
            ran = simulator.native_active() and simulator.uses_native()
        else:
            ran = (simulator.native_lanes_active()
                   and simulator.uses_native_lanes())
        if not ran:
            raise TierError(
                f"{self.name}: native tier did not run "
                f"({simulator.native_fallback_reason or 'no reason recorded'})")

    def new_block(self) -> None:
        pass

    def op(self) -> Tuple[int, int, int]:
        """Returns ``(attempted, failed, transactions)``."""
        report = self._fuzz.fuzz_against_golden(
            self.harness, self._golden, count=self.count,
            seed=self.stream_base + self.calls * self.lanes,
            lanes=self.lanes)
        self.calls += 1
        # One divergence line per mismatching output, prefixed by the
        # transaction (and lane) it belongs to.
        failed = len({line.split(" (", 1)[0] for line in report.divergences})
        return report.transactions, failed, report.transactions


class FuzzLanes(FuzzAddMult):
    """The same design and tier as :class:`FuzzAddMult`, as 64 short
    streams per call through the native lane entry."""

    name = "fuzz-lanes"
    count = 64
    lanes = 64
    block_ops = 80
    rss_ops = 80


class EditLoop:
    """A designer's edit → recompile → re-simulate loop on a 64-component
    chain: edit the leaf in place, re-emit Verilog, rebuild the harness on
    the compiled tier and fuzz 256 transactions against the closed form."""

    name = "edit-loop"
    depth = 64
    transactions = 256
    block_ops = 4
    #: Every edit adds a kernel to the process-wide cache; memory is read
    #: after a fixed number of them.
    rss_ops = 16

    def __init__(self, seed: int, wrong_golden: bool = False) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.offset = 1 if wrong_golden else 0
        self.salt = 0
        # Every edit is new to the process: a repeated constant would hit
        # the kernel cache and skip the codegen a real edit pays for.
        self.used: Set[int] = {0}
        self.edits = 0
        self.seeds = 0

    def setup(self) -> None:
        from repro.core.session import CompilationSession
        from repro.evaluation import compile_time
        from repro.harness import driver, fuzz
        self._compile_time = compile_time
        self._driver = driver
        self._fuzz = fuzz
        self.program, self.entry = compile_time.chain_program(self.depth)
        self.session = CompilationSession(self.program)
        self.session.verilog(self.entry)
        self._verdict()  # builds the first kernel

    def _golden(self) -> Callable[[Dict[str, int]], Dict[str, int]]:
        # Chain0 computes ((a + b) ^ salt); each of the other 63 links adds b.
        salt, offset, mask = self.salt, self.offset, 0xFFFF
        adds = self.depth - 1

        def expected(transaction: Dict[str, int]) -> Dict[str, int]:
            a, b = transaction["a"], transaction["b"]
            out = ((((a + b) & mask) ^ salt) + adds * b + offset) & mask
            return {"out": out}

        return expected

    def _verdict(self) -> bool:
        harness = self._driver.harness_for(self.program, self.entry,
                                           session=self.session)
        report = self._fuzz.fuzz_against_golden(
            harness, self._golden(), count=self.transactions,
            seed=self.rng.getrandbits(40))
        if not harness._simulator.prepare()["kernel"]:
            raise TierError(
                f"{self.name}: compiled kernel did not run "
                f"({harness._simulator.kernel_fallback_reason})")
        return report.passed

    def gate(self) -> None:
        """Checked on every edit by :meth:`_verdict`."""

    def new_block(self) -> None:
        pass

    def op(self) -> Tuple[int, int, int]:
        value = 0
        while value in self.used:
            value = self.rng.getrandbits(16)
        self.used.add(value)
        self._compile_time.edit_chain_leaf(self.program, value)
        self.salt = value
        self.session.verilog(self.entry)
        passed = self._verdict()
        self.edits += 1
        return 1, 0 if passed else 1, self.transactions


#: Substrings of a native fallback reason that blame the host, not the
#: netlist (black boxes and over-wide signals fall back by design).
_HOST_FAILURES = ("C compiler", "C compilation", "failed to load",
                  "native cache dir")


class ConformanceCold:
    """``run_conformance`` with every way on (the CLI default) over
    consecutive fresh program seeds, so every seed pays its own ``cc``
    build, four-engine matrix, generator run and Verilog re-import.

    Programs differ widely in cost, so every block walks the same program
    seeds (``0 … block_ops - 1``, the start of the CLI's default range) and
    blocks and runs compare like with like; the workload seed draws each
    program's stimulus and mutation seed.  Each block starts cold: the
    process-wide caches are dropped and both cache directories are new and
    empty, as in a fresh process.  Set-up runs one fixed program outside
    that range."""

    name = "conformance-cold"
    transactions = 12
    block_ops = 9
    rss_ops = 9
    setup_program = 1_000_000

    def __init__(self, seed: int, wrong_golden: bool = False) -> None:
        self.stimulus_base = random.Random(
            f"{self.name}:{seed}").randrange(1 << 30)
        self.wrong_golden = wrong_golden
        self.edits = 0
        self.seeds = 0
        self.blocks = 0
        self.program = 0

    def setup(self) -> None:
        from repro.conformance import differential, generator
        _require_compiler()
        self._differential = differential
        self._generator = generator
        self._roots = {variable: Path(os.environ[variable]) for variable
                       in ("REPRO_STORE_DIR", "REPRO_NATIVE_CACHE_DIR")}
        self._check(self.setup_program)

    def gate(self) -> None:
        """Checked on every seed by :meth:`_check`."""

    def new_block(self) -> None:
        from repro.core import queries, store
        from repro.sim import codegen, native
        self.blocks += 1
        for variable, root in self._roots.items():
            fresh = root.with_name(f"{root.name}-block{self.blocks}")
            fresh.mkdir()
            os.environ[variable] = str(fresh)
        store.reset_default_store()
        queries.clear_compile_cache()
        codegen.clear_kernel_cache()
        native.clear_native_cache()
        self.program = 0

    def _check(self, program_seed: int) -> bool:
        generated = self._generator.generate(program_seed)
        if self.wrong_golden:
            exact = generated.golden
            generated.golden = lambda transaction: {
                name: value + 1 for name, value in exact(transaction).items()}
        result = self._differential.run_conformance(
            generated, transactions=self.transactions,
            seed=self.stimulus_base + program_seed)
        coverage = result.coverage
        reason = coverage.native_fallback or ""
        if not coverage.native and any(text in reason
                                       for text in _HOST_FAILURES):
            raise TierError(f"{self.name}: native tier did not run for "
                            f"program seed {program_seed} ({reason})")
        return result.passed

    def op(self) -> Tuple[int, int, int]:
        passed = self._check(self.program)
        self.program += 1
        self.seeds += 1
        return 1, 0 if passed else 1, self.transactions


WORKLOADS = {cls.name: cls for cls in
             (FuzzAddMult, FuzzLanes, EditLoop, ConformanceCold)}
