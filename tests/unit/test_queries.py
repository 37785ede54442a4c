"""Unit tests for the incremental query layer (:mod:`repro.core.queries`)."""

import pytest

from repro.core import CompilationSession, FilamentError
from repro.core.ast import Connect, ConstantPort, PortDef, PortRef
from repro.core.events import Interval, evt
from repro.core.parser import parse_program
from repro.core.stdlib import with_stdlib
from repro.evaluation import chain_program, edit_chain_leaf

SOURCE = """
comp Leaf<G: 1>(
  @interface[G] go: 1,
  @[G, G+1] a: 8
) -> (@[G, G+1] out: 8) {
  out = 8'd1;
}

comp Mid<G: 1>(
  @interface[G] go: 1,
  @[G, G+1] a: 8
) -> (@[G, G+1] out: 8) {
  L := new Leaf;
  l0 := L<G>(a);
  out = l0.out;
}

comp Top<G: 1>(
  @interface[G] go: 1,
  @[G, G+1] a: 8
) -> (@[G, G+1] out: 8) {
  M := new Mid;
  m0 := M<G>(a);
  out = m0.out;
}

comp Bystander<G: 1>(
  @interface[G] go: 1,
  @[G, G+1] a: 8
) -> (@[G, G+1] out: 8) {
  out = a;
}
"""


def _program():
    return with_stdlib(parse_program(SOURCE))


def _edit_leaf_body(program, value):
    program.get("Leaf").body[0] = Connect(PortRef("out"),
                                          ConstantPort(value, 8))


class TestInvalidation:
    def test_body_edit_recompiles_only_the_leaf(self):
        """The acceptance criterion: a leaf body edit re-runs the leaf's
        queries and *nothing else* — Mid and Top depend only on Leaf's
        signature, which early cutoff proves unchanged."""
        program = _program()
        session = CompilationSession(program)
        session.verilog("Top")
        _edit_leaf_body(program, 2)
        session.verilog("Top")
        assert session.engine.recompiled_components() == ["Leaf"]

    def test_interface_edit_recompiles_transitive_dependents(self):
        from dataclasses import replace
        program = _program()
        session = CompilationSession(program)
        session.verilog("Top")
        session.calyx("Bystander")
        leaf = program.get("Leaf")
        interval = Interval(evt("G"), evt("G") + 1)
        leaf.signature = replace(
            leaf.signature,
            outputs=(PortDef("out", 8, interval),
                     PortDef("extra", 8, interval)),
        )
        leaf.body.append(Connect(PortRef("extra"), ConstantPort(5, 8)))
        session.verilog("Top")
        session.calyx("Bystander")
        # Leaf and its direct client recompile.  Top survives by early
        # cutoff — Mid re-checked against the new signature, but Mid's own
        # interface and lowered output are unchanged (the new output port
        # is unused), so nothing above it re-runs.  The bystander is never
        # touched at all.
        assert session.engine.recompiled_components() == ["Leaf", "Mid"]

    def test_unchanged_recompile_executes_nothing(self):
        program = _program()
        session = CompilationSession(program)
        session.verilog("Top")
        mark = session.engine.log_mark()
        session.verilog("Top")
        assert session.engine.executed_since(mark) == []

    def test_incremental_artifacts_match_scratch_byte_for_byte(self):
        program, entrypoint = chain_program(6, salt=1000001)
        session = CompilationSession(program)
        session.verilog(entrypoint)
        edit_chain_leaf(program, 77)
        incremental_calyx = str(session.calyx(entrypoint))
        incremental_verilog = session.verilog(entrypoint)

        scratch_program, _ = chain_program(6, salt=1000001)
        edit_chain_leaf(scratch_program, 77)
        scratch = CompilationSession(scratch_program)
        assert str(scratch.calyx(entrypoint)) == incremental_calyx
        assert scratch.verilog(entrypoint) == incremental_verilog

    def test_removing_a_component_fails_like_a_scratch_compile(self):
        program = _program()
        session = CompilationSession(program)
        session.calyx("Top")
        del program.components["Leaf"]
        with pytest.raises(FilamentError):
            session.calyx("Top")


class TestSessionIsolation:
    def test_content_identical_sessions_share_no_artifact(self):
        """Each session compiles its own program: content-identical
        programs yield equal Calyx, but no component object of one is
        served to the other."""
        a = CompilationSession(_program()).calyx("Top")
        b = CompilationSession(_program()).calyx("Top")
        assert str(b) == str(a)
        for name in ("Leaf", "Mid", "Top"):
            assert b.get(name) is not a.get(name)

    def test_in_place_mutation_cannot_poison_old_cache_entries(self):
        """A checked artifact references the AST component it was computed
        from; mutating that object in place must not leak the new content
        to a content-identical-to-old program compiled afterwards."""
        program = _program()
        session = CompilationSession(program)
        session.calyx("Top")
        # Mutate the leaf in place: the old-key check artifact's embedded
        # component now carries the *new* body.
        _edit_leaf_body(program, 9)
        session.calyx("Top")
        # A fresh program whose leaf still has the ORIGINAL body must not
        # observe the mutated artifact.
        fresh = _program()  # original source: leaf drives 8'd1
        calyx = CompilationSession(fresh).calyx("Top")
        assert "1" in str(calyx.get("Leaf"))
        assert "9" not in str(calyx.get("Leaf"))

    def test_foreign_mutation_cannot_reach_a_sharing_session(self):
        """Order reversed: B checks a content-identical program *before*
        A mutates.  B's memoized artifact must be bound to B's own
        component, so A's later in-place edit neither changes B's output
        nor that of a fresh session over the original content."""
        program_a = _program()
        session_a = CompilationSession(program_a)
        session_a.check()
        program_b = _program()
        session_b = CompilationSession(program_b)
        session_b.check()
        _edit_leaf_body(program_a, 9)  # A mutates AFTER B checked
        verilog_b = session_b.verilog("Top")
        assert "8'd1" in verilog_b or "'d1" in verilog_b
        assert "9" not in verilog_b.split("module Leaf", 1)[1].split(
            "endmodule", 1)[0]
        # A third, completely fresh session over the original source must
        # also see the original constant.
        fresh = CompilationSession(_program()).verilog("Top")
        assert fresh == verilog_b


class TestSeededChecks:
    def test_stale_seed_is_rejected_when_child_signatures_changed(self):
        """A CheckedProgram seeded into a session is only trusted while the
        session's program yields the same check digest — self content AND
        instantiated signatures.  A byte-identical component checked
        against a *different* child interface must re-typecheck (and fail
        here, since the program is genuinely ill-typed)."""
        from repro.core import check_program
        from repro.core.errors import FilamentError as CheckError
        from repro.core.printer import format_program

        program_1 = _program()
        checked_1 = check_program(program_1)
        # Same Mid/Top text, but Leaf's interface changed incompatibly:
        # its output is now available a cycle later than Mid reads it.
        program_2 = with_stdlib(parse_program(SOURCE.replace(
            "-> (@[G, G+1] out: 8) {\n  out = 8'd1;",
            "-> (@[G+1, G+2] out: 8) {\n  R := new Reg[8];\n"
            "  r0 := R<G>(a);\n  out = r0.out;").replace(
            "comp Leaf<G: 1>", "comp Leaf<G: 2>")))
        session = CompilationSession(program_2, checked=checked_1)
        with pytest.raises(CheckError):
            session.calyx("Top")
        # And a fresh session over the same content rejects it too.
        with pytest.raises(CheckError):
            CompilationSession(with_stdlib(parse_program(
                format_program(program_2, include_externs=False)))
            ).calyx("Top")

    def test_valid_seed_skips_retypechecking(self):
        program = _program()
        from repro.core import check_program
        checked = check_program(program)
        session = CompilationSession(program, checked=checked)
        calyx = session.calyx("Top")
        assert calyx.entrypoint == "Top"


class TestSessionFacade:
    def test_query_stats_and_engine_are_exposed(self):
        session = CompilationSession(_program())
        session.calyx("Top")
        stats = session.query_stats()
        assert stats["executed"] > 0
        assert stats["revision"] == session.engine.revision

    def test_for_program_is_keyed_by_content_not_id(self):
        """The historical bug: ``id()`` snapshots can alias after GC
        reallocation.  Content fingerprints cannot: the same session keeps
        serving the same program object, revalidating by content."""
        program = _program()
        first = CompilationSession.for_program(program)
        assert CompilationSession.for_program(program) is first
        top = first.calyx("Top")
        # Replace a component with a content-identical copy (new objects,
        # same fingerprints): nothing recompiles.
        donor = _program()
        program.components["Mid"] = donor.get("Mid")
        mark = first.engine.log_mark()
        assert CompilationSession.for_program(program).calyx("Top") is top
        assert first.engine.executed_since(mark) == []


def _scratch_verilog(program, entrypoint):
    """``entrypoint``'s Verilog compiled from a printed copy of
    ``program`` in a session of its own."""
    from repro.core.printer import format_program

    copy = with_stdlib(parse_program(
        format_program(program, include_externs=False)))
    return CompilationSession(copy).verilog(entrypoint)


class TestIdentityMemoAndSuspectMarks:
    """Refresh prints only components whose parts changed, and marks only
    the queries an edit can reach: each case breaks if one of those
    shortcuts looks at less than it must."""

    def test_fresh_commands_at_recycled_addresses_are_seen(self):
        """Each edit drops the leaf's constant-carrying command, collects
        garbage, then puts a fresh one in its place — the one of a batch
        that CPython placed where the dropped command lived, when there is
        one.  A memo that compared ``id()``s without holding its parts
        would take that command for the old one."""
        import gc

        from repro.core.ast import Invoke

        program, entrypoint = chain_program(3, salt=1000003)
        session = CompilationSession(program)
        session.verilog(entrypoint)
        leaf = program.get("Chain0")
        index = next(i for i, command in enumerate(leaf.body)
                     if isinstance(command, Invoke) and any(
                         isinstance(arg, ConstantPort)
                         for arg in command.args))
        for step in range(200):
            old = leaf.body[index]
            name, instance, events, args = (old.name, old.instance,
                                            old.events, old.args)
            address = id(old)
            del leaf.body[index], old
            gc.collect()
            fresh = [Invoke(name, instance, events, tuple(
                ConstantPort(20000 + 64 * step + k, arg.width)
                if isinstance(arg, ConstantPort) else arg for arg in args))
                for k in range(64)]
            leaf.body.insert(index, next(
                (command for command in fresh if id(command) == address),
                fresh[0]))
            del fresh
            verilog = session.verilog(entrypoint)
            if step % 20 == 19:
                assert verilog == _scratch_verilog(program, entrypoint)

    def test_append_then_pop_and_a_new_signature_recompile(self):
        from dataclasses import replace

        from repro.core.ast import Instantiate

        program = _program()
        session = CompilationSession(program)
        original = session.verilog("Top")
        session.verilog("Bystander")
        leaf = program.get("Leaf")
        leaf.body.append(Instantiate("U", "Add", (8,)))
        appended = session.verilog("Top")
        assert session.engine.recompiled_components() == ["Leaf"]
        assert appended != original
        assert appended == _scratch_verilog(program, "Top")
        leaf.body.pop()
        assert session.verilog("Top") == original
        assert session.engine.recompiled_components() == ["Leaf"]

        bystander = program.get("Bystander")
        interval = Interval(evt("G"), evt("G") + 1)
        bystander.signature = replace(
            bystander.signature,
            inputs=(PortDef("a", 16, interval),),
            outputs=(PortDef("out", 16, interval),))
        widened = session.verilog("Bystander")
        assert session.engine.recompiled_components() == ["Bystander"]
        assert widened == _scratch_verilog(program, "Bystander")

    def test_suspect_marks_outlive_a_sync_that_did_not_read_them(self):
        """A leaf edit synced through an unrelated entrypoint leaves Top's
        queries suspect; the next edit elsewhere must not clear that."""
        program = _program()
        session = CompilationSession(program)
        session.verilog("Top")
        session.verilog("Bystander")
        _edit_leaf_body(program, 3)
        session.verilog("Bystander")
        program.get("Bystander").body[0] = Connect(PortRef("out"),
                                                   ConstantPort(4, 8))
        assert session.verilog("Top") == _scratch_verilog(program, "Top")
        assert session.verilog("Bystander") == _scratch_verilog(
            program, "Bystander")

    def test_removed_components_leave_the_print_memo(self):
        program = _program()
        session = CompilationSession(program)
        session.verilog("Top")
        assert {"Xor", "Bystander"} <= set(session.engine._printed)
        del program.components["Xor"], program.components["Bystander"]
        session.verilog("Top")
        assert not {"Xor", "Bystander"} & set(session.engine._printed)

    def test_a_changed_instantiation_changes_what_is_reached(self):
        """Top's last walk reached Mid and Leaf; once Mid instantiates
        Bystander instead, Leaf's module must leave Top's Verilog."""
        from repro.core.ast import Instantiate

        program = _program()
        session = CompilationSession(program)
        assert "module Leaf" in session.verilog("Top")
        mid = program.get("Mid")
        mid.body[0] = Instantiate("L", "Bystander")
        verilog = session.verilog("Top")
        assert "module Leaf" not in verilog
        assert verilog == _scratch_verilog(program, "Top")
