"""Fingerprint stability and sensitivity (:mod:`repro.core.fingerprint`).

The incremental query layer is only sound if fingerprints are
*stable* — unchanged across a print → re-parse round trip of the printer's
output, for every design and corpus entry — and *sensitive* — changed by
any interface or body edit.
"""

from pathlib import Path

import pytest

from repro.conformance.corpus import load_entries, replay_entry
from repro.core.ast import Connect, ConstantPort, PortDef, PortRef
from repro.core.events import Interval, evt
from repro.core.fingerprint import (
    component_fingerprint,
    component_self_fingerprint,
    fingerprint_snapshot,
    program_fingerprint,
    signature_fingerprint,
)
from repro.core.parser import parse_program
from repro.core.printer import format_program
from repro.core.stdlib import with_stdlib
from repro.evaluation import evaluation_designs

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def _roundtrip(program):
    """Print the whole program and re-parse it (no stdlib re-merge: the
    printed text already contains every extern signature)."""
    return parse_program(format_program(program))


class TestStability:
    @pytest.mark.parametrize(
        "name,thunk", evaluation_designs(),
        ids=[name for name, _ in evaluation_designs()])
    def test_designs_stable_across_print_reparse(self, name, thunk):
        program, entrypoint = thunk()
        reparsed = _roundtrip(program)
        assert fingerprint_snapshot(program) == fingerprint_snapshot(reparsed)
        assert component_fingerprint(entrypoint, program) == \
            component_fingerprint(entrypoint, reparsed)
        assert program_fingerprint(program) == program_fingerprint(reparsed)

    @pytest.mark.parametrize(
        "path", sorted(CORPUS_DIR.glob("*.json")),
        ids=[p.stem for p in sorted(CORPUS_DIR.glob("*.json"))])
    def test_corpus_entries_stable_across_print_reparse(self, path):
        entries = dict(load_entries(CORPUS_DIR))
        generated = replay_entry(entries[path])
        program = generated.program
        reparsed = _roundtrip(program)
        name = generated.spec.name
        assert component_self_fingerprint(program.get(name)) == \
            component_self_fingerprint(reparsed.get(name))
        assert component_fingerprint(name, program) == \
            component_fingerprint(name, reparsed)

    def test_fingerprint_is_object_independent(self):
        """Two independently built, content-identical programs fingerprint
        identically (what a frontend bundle's fingerprint is built from)."""
        from repro.designs import conv2d_base_program
        a, b = conv2d_base_program(), conv2d_base_program()
        assert fingerprint_snapshot(a) == fingerprint_snapshot(b)
        assert component_fingerprint("Conv2d", a) == \
            component_fingerprint("Conv2d", b)


SOURCE = """
comp Leaf<G: 1>(
  @interface[G] go: 1,
  @[G, G+1] a: 8
) -> (@[G, G+1] out: 8) {
  out = 8'd1;
}

comp Top<G: 1>(
  @interface[G] go: 1,
  @[G, G+1] a: 8
) -> (@[G, G+1] out: 8) {
  L := new Leaf;
  l0 := L<G>(a);
  out = l0.out;
}
"""


class TestSensitivity:
    def _program(self):
        return with_stdlib(parse_program(SOURCE))

    def test_body_edit_changes_self_and_deep_fingerprint(self):
        program = self._program()
        leaf = program.get("Leaf")
        before_self = component_self_fingerprint(leaf)
        before_sig = signature_fingerprint(leaf)
        before_deep = component_fingerprint("Leaf", program)
        leaf.body[0] = Connect(PortRef("out"), ConstantPort(2, 8))
        assert component_self_fingerprint(leaf) != before_self
        assert component_fingerprint("Leaf", program) != before_deep
        # A body edit never moves the signature fingerprint.
        assert signature_fingerprint(leaf) == before_sig

    def test_interface_edit_changes_signature_fingerprint(self):
        from dataclasses import replace
        program = self._program()
        leaf = program.get("Leaf")
        before_self = component_self_fingerprint(leaf)
        before_sig = signature_fingerprint(leaf)
        interval = Interval(evt("G"), evt("G") + 1)
        widened = replace(
            leaf.signature,
            outputs=(PortDef("out", 8, interval), PortDef("extra", 1, interval)),
        )
        leaf.signature = widened
        assert signature_fingerprint(leaf) != before_sig
        assert component_self_fingerprint(leaf) != before_self

    def test_leaf_edit_changes_parents_deep_but_not_self_fingerprint(self):
        program = self._program()
        top_self = component_self_fingerprint(program.get("Top"))
        top_deep = component_fingerprint("Top", program)
        leaf = program.get("Leaf")
        leaf.body[0] = Connect(PortRef("out"), ConstantPort(3, 8))
        assert component_self_fingerprint(program.get("Top")) == top_self
        assert component_fingerprint("Top", program) != top_deep


class TestCalyxFingerprints:
    """Content digests for generator netlists (the calyx-entry cache key):
    stable across regeneration and print -> re-emit, sensitive to any
    netlist edit."""

    def _calyx(self):
        from repro.core.session import CompilationSession
        from repro.designs.alu import alu_program
        return CompilationSession.for_program(
            alu_program("sequential")).calyx("ALU")

    def test_print_then_reemit_is_invariant(self):
        from repro.core.fingerprint import calyx_fingerprint
        calyx = self._calyx()
        before = calyx_fingerprint(calyx)
        # Printing every component and re-printing must not move the digest
        # (the digest IS printer-backed, so any printer nondeterminism —
        # dict ordering, object identity — would show up here).
        texts = {name: str(component)
                 for name, component in calyx.components.items()}
        assert calyx_fingerprint(calyx) == before
        assert {name: str(component)
                for name, component in calyx.components.items()} == texts

    def test_regenerating_the_design_reproduces_the_digest(self):
        from repro.core.fingerprint import calyx_fingerprint
        assert calyx_fingerprint(self._calyx()) == \
            calyx_fingerprint(self._calyx())

    def test_generator_bundles_reproduce_their_digests(self):
        from repro.core.fingerprint import calyx_fingerprint
        from repro.core.frontend import generator_sources
        for source in generator_sources():
            first = source.bundle()
            second = source.bundle()
            assert calyx_fingerprint(first.calyx) == \
                calyx_fingerprint(second.calyx), source.name

    def test_netlist_edit_changes_the_digest(self):
        from repro.calyx.ir import Assignment, CellPort
        from repro.core.fingerprint import calyx_fingerprint
        calyx = self._calyx()
        before = calyx_fingerprint(calyx)
        calyx.get("ALU").wires.append(
            Assignment(CellPort(None, "out"), 1))
        assert calyx_fingerprint(calyx) != before

    def test_entrypoint_is_part_of_the_digest(self):
        from repro.core.fingerprint import calyx_fingerprint
        calyx = self._calyx()
        assert calyx_fingerprint(calyx, "ALU") != \
            calyx_fingerprint(calyx, "Other")

    def test_extern_signature_fingerprints_are_stable(self):
        from repro.core.fingerprint import signature_fingerprint
        from repro.generators.reticle import tdot_signature
        assert signature_fingerprint(tdot_signature()) == \
            signature_fingerprint(tdot_signature())
