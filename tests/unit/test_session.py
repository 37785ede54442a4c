"""Unit tests for :class:`repro.core.session.CompilationSession`."""

import pytest

from repro.core import CompilationSession, FilamentError
from repro.core.lower import compile_program, lower_program
from repro.core.lower.low_filament import LowProgram
from repro.designs import conv2d_base_program, divider_program
from repro.evaluation import chain_program, edit_chain_leaf


SOURCE = """
comp main<G: 1>(
  @interface[G] go: 1,
  @[G, G+1] a: 32
) -> (@[G, G+1] out: 32) {
  out = a;
}
"""


class TestStagedCompilation:
    def test_compile_upto_each_stage(self):
        session = CompilationSession(conv2d_base_program())
        program = session.compile(upto="parse")
        checked = session.compile(upto="check")
        low = session.compile("Conv2d", upto="lower")
        calyx = session.compile("Conv2d", upto="calyx")
        verilog = session.compile("Conv2d", upto="verilog")
        assert checked.program is program
        assert isinstance(low, LowProgram) and "Conv2d" in low
        assert calyx.entrypoint == "Conv2d"
        assert "module Conv2d" in verilog

    def test_unknown_stage_rejected(self):
        session = CompilationSession(conv2d_base_program())
        with pytest.raises(FilamentError):
            session.compile("Conv2d", upto="synthesize")

    def test_entrypoint_required_beyond_check(self):
        session = CompilationSession(conv2d_base_program())
        with pytest.raises(FilamentError):
            session.compile(upto="calyx")

    def test_needs_exactly_one_of_program_or_source(self):
        with pytest.raises(FilamentError):
            CompilationSession()
        with pytest.raises(FilamentError):
            CompilationSession(conv2d_base_program(), source=SOURCE)

    def test_from_source_runs_a_parse_stage(self):
        session = CompilationSession.from_source(SOURCE)
        calyx = session.compile("main")
        assert calyx.entrypoint == "main"
        assert list(session.stage_seconds())[:2] == ["parse", "check"]


class TestMemoization:
    def test_recompile_is_a_cache_hit_without_retypecheck(self):
        session = CompilationSession(conv2d_base_program())
        first = session.calyx("Conv2d")
        assert session.calyx("Conv2d") is first
        stats = session.cache_stats()
        assert stats["check"] == {"hits": 0, "misses": 1}
        assert stats["calyx"]["hits"] == 1

    def test_components_shared_across_entrypoints(self):
        """Two entrypoints that instantiate the same sub-component lower and
        translate it exactly once."""
        program = conv2d_base_program()
        session = CompilationSession(program)
        conv = session.calyx("Conv2d")
        stencil = session.calyx("Stencil")
        assert conv.get("Stencil") is stencil.get("Stencil")
        assert session.cache_stats()["check"]["misses"] == 1

    def test_session_output_matches_direct_pipeline(self):
        program = divider_program("pipelined")
        via_session = CompilationSession(program).calyx("PipeDiv")
        direct = lower_program(program, "PipeDiv")
        assert set(via_session.components) == set(direct.components)
        assert str(via_session.get("PipeDiv")) == \
            str(compile_program(program, "PipeDiv").get("PipeDiv"))

    def test_for_program_returns_shared_session(self):
        program = conv2d_base_program()
        assert CompilationSession.for_program(program) is \
            CompilationSession.for_program(program)
        other = conv2d_base_program()
        assert CompilationSession.for_program(other) is not \
            CompilationSession.for_program(program)

    def test_compile_program_wrapper_hits_shared_session(self):
        program = conv2d_base_program()
        assert compile_program(program, "Conv2d") is \
            compile_program(program, "Conv2d")

    def test_adding_components_keeps_unrelated_artifacts_cached(self):
        """The shared session survives mutation: adding components compiles
        the new entrypoint fine (no 'was not checked') while the untouched
        entrypoint's artifacts are served from cache, identity-stable."""
        program = conv2d_base_program()
        before = compile_program(program, "Conv2d")
        donor = divider_program("pipelined")
        program.components["PipeDiv"] = donor.get("PipeDiv")
        program.components["Nxt"] = donor.get("Nxt")
        fresh = compile_program(program, "PipeDiv")  # no 'was not checked'
        assert fresh.entrypoint == "PipeDiv"
        assert compile_program(program, "Conv2d") is before

    def test_in_place_mutation_recompiles_through_for_program(self):
        """Editing a component *in place* (content fingerprint, not ``id()``
        snapshots, so a GC'd-and-reallocated component can never alias a
        stale entry) is observed by the shared session and recompiled."""
        from repro.core.ast import Connect, ConstantPort, PortRef
        from repro.core.parser import parse_program
        from repro.core.stdlib import with_stdlib

        program = with_stdlib(parse_program("""
        comp main<G: 1>(
          @interface[G] go: 1,
          @[G, G+1] a: 32
        ) -> (@[G, G+1] out: 32) {
          out = 32'd7;
        }
        """))
        before = compile_program(program, "main")
        assert "7" in str(before.get("main"))
        component = program.get("main")
        component.body[0] = Connect(PortRef("out"), ConstantPort(9, 32))
        after = compile_program(program, "main")
        assert after is not before
        assert "9" in str(after.get("main"))
        # The recompile really re-ran the dirty component's queries.
        session = CompilationSession.for_program(program)
        assert "main" in session.engine.recompiled_components()

    def test_editing_one_leaf_recompiles_only_its_dependents(self):
        """Body-editing a leaf of a multi-component design recompiles only
        the leaf (its clients depend on its *signature* alone — the paper's
        modularity claim — so early cutoff re-verifies them from cache)."""
        from repro.core.ast import Connect, ConstantPort, PortRef
        from repro.core.parser import parse_program
        from repro.core.stdlib import with_stdlib

        program = with_stdlib(parse_program("""
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
        """))
        session = CompilationSession.for_program(program)
        top_before = session.calyx("Top").get("Top")
        leaf = program.get("Leaf")
        leaf.body[-1] = Connect(PortRef("out"), ConstantPort(2, 8))
        after = session.calyx("Top")
        # Only the leaf re-ran heavy queries; Top was served via cutoff.
        assert session.engine.recompiled_components() == ["Leaf"]
        assert after.get("Top") is top_before
        assert "2" in str(after.get("Leaf"))


class TestInstrumentation:
    def test_stage_seconds_cover_the_pipeline(self):
        session = CompilationSession(conv2d_base_program())
        session.compile("Conv2d", upto="verilog")
        seconds = session.stage_seconds()
        assert set(seconds) == {"check", "lower", "calyx", "verilog"}
        assert all(value >= 0.0 for value in seconds.values())

    def test_a_long_edit_session_keeps_one_total_per_stage(self):
        """Stage timings are running totals, not one record per call:
        200 leaf edits leave one entry per stage, and every edit is
        among ``verilog``'s misses."""
        program, entrypoint = chain_program(4)
        session = CompilationSession(program)
        session.verilog(entrypoint)
        for value in range(1, 201):
            edit_chain_leaf(program, value)
            session.verilog(entrypoint)
        assert sorted(session._stages) == ["calyx", "check", "lower",
                                           "verilog"]
        assert session.cache_stats()["verilog"] == {"hits": 0,
                                                    "misses": 201}

    def test_cache_hits_contribute_no_stage_time(self):
        session = CompilationSession(conv2d_base_program())
        session.calyx("Conv2d")
        before = session.stage_seconds()
        session.calyx("Conv2d")
        assert session.stage_seconds() == before

    def test_simulator_and_harness_helpers(self):
        session = CompilationSession(divider_program("pipelined"))
        simulator = session.simulator("PipeDiv")
        assert simulator.component.name == "PipeDiv"
        harness = session.harness("PipeDiv")
        assert harness.component == "PipeDiv"
        assert session.cache_stats()["calyx"]["misses"] == 1
