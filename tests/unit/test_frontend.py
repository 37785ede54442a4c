"""The uniform frontend abstraction (:mod:`repro.core.frontend`) and the
calyx-entry compilation sessions behind it."""

import pytest

from repro.calyx.ir import Assignment, CellPort, PortSpec
from repro.conformance.frontends import run_frontend_conformance
from repro.core.errors import FilamentError
from repro.core.frontend import (FRONTENDS, AetherlingSource, FilamentSource,
                                 PipelineCSource, ReticleSource, SourceBundle,
                                 design_root, frontend_source,
                                 generator_sources)
from repro.core.session import CompilationSession
from repro.designs.alu import alu_program


class TestSourceBundle:
    def test_needs_exactly_one_artifact(self):
        with pytest.raises(FilamentError):
            SourceBundle("X", "filament")
        program = alu_program("sequential")
        calyx = CompilationSession.for_program(program).calyx("ALU")
        with pytest.raises(FilamentError):
            SourceBundle("ALU", "filament", program=program, calyx=calyx)

    def test_filament_bundle_routes_through_the_query_session(self):
        source = FilamentSource(alu_program("sequential"))
        bundle = source.bundle()
        assert bundle.frontend == "filament"
        session = bundle.session()
        session.calyx(bundle.name)
        assert session.query_stats()["executed"] > 0


@pytest.mark.parametrize("source", generator_sources(),
                         ids=[s.name for s in generator_sources()])
class TestGeneratorBundles:
    def test_fingerprints_reproduce_across_regeneration(self, source):
        assert source.bundle().fingerprint == source.bundle().fingerprint

    def test_warm_recompile_hits_the_process_cache(self, source):
        """A calyx-entry session memoizes its stages on the netlist
        fingerprint: a repeat over an unchanged netlist hits at ``calyx``
        and ``verilog`` and returns the same text; after an in-place edit
        the next call misses and emits again."""
        bundle = source.bundle()
        session = bundle.session()
        cold = session.verilog(bundle.name)
        assert session.verilog(bundle.name) == cold
        stats = session.cache_stats()
        assert stats["calyx"] == stats["verilog"] == {"hits": 1, "misses": 1}

        top = bundle.calyx.get(bundle.name)
        top.outputs.append(PortSpec("probe", 1))
        top.wires.append(Assignment(CellPort(None, "probe"), 1))
        edited = session.verilog(bundle.name)
        assert edited != cold and "probe" in edited
        stats = session.cache_stats()
        assert stats["calyx"] == stats["verilog"] == {"hits": 1, "misses": 2}

    def test_golden_model_matches_the_engine(self, source):
        result = run_frontend_conformance(source, transactions=4)
        assert result.passed, result.divergences
        assert result.coverage.frontend == source.frontend
        assert result.coverage.verilog_reimport is True


class TestCalyxEntrySessions:
    def _session(self):
        bundle = ReticleSource("tdot").bundle()
        return bundle, bundle.session()

    def test_filament_stages_do_not_exist(self):
        bundle, session = self._session()
        with pytest.raises(FilamentError, match="calyx stage"):
            session.program
        with pytest.raises(FilamentError, match="calyx stage"):
            session.check()
        with pytest.raises(FilamentError, match="calyx stage"):
            session.lower(bundle.name)
        with pytest.raises(FilamentError):
            session.compile(bundle.name, upto="check")

    def test_query_stats_are_zero(self):
        _, session = self._session()
        stats = session.query_stats()
        assert stats["executed"] == 0

    def test_refresh_detects_in_place_mutation(self):
        bundle, session = self._session()
        session.calyx(bundle.name)
        assert session.refresh() is False
        component = bundle.calyx.get(bundle.name)
        component.wires.append(
            Assignment(CellPort("dsp", "a0"), 1))
        assert session.refresh() is True

    def test_verilog_compiles_through_the_calyx_entry(self):
        bundle, session = self._session()
        text = session.verilog(bundle.name)
        assert f"module {bundle.name}" in text


class TestAdapters:
    def test_aetherling_underutilized_points_claim_wrong(self):
        assert AetherlingSource("conv2d", 1).bundle().claim_correct is True
        from fractions import Fraction
        bundle = AetherlingSource("conv2d", Fraction(1, 3)).bundle()
        assert bundle.claim_correct is False

    def test_pipelinec_carries_the_extern_signature(self):
        bundle = PipelineCSource("fpadd").bundle()
        assert bundle.externs
        assert bundle.spec.initiation_interval == 1

    def test_reticle_synthesizes_a_drivable_wrapper(self):
        bundle = ReticleSource("dot9").bundle()
        assert bundle.calyx.entrypoint == "reticle_dot9"
        assert [c.component for c in
                bundle.calyx.get("reticle_dot9").cells] == ["ReticleDot"]

    def test_unknown_designs_are_clean_errors(self):
        with pytest.raises(FilamentError):
            PipelineCSource("nope")
        with pytest.raises(FilamentError):
            ReticleSource("nope")


class TestRegistry:
    def test_frontend_source_parses_designations(self):
        source = frontend_source("aetherling", "sharpen@1/3")
        assert source.kernel == "sharpen"
        assert str(source.throughput) == "1/3"
        assert frontend_source("pipelinec").name == "FpAdd"
        assert frontend_source("reticle", "dot9").name == "reticle_dot9"

    def test_frontend_source_rejects_filament_and_unknown(self):
        with pytest.raises(FilamentError):
            frontend_source("filament", "x.fil")
        with pytest.raises(FilamentError):
            frontend_source("verilator")

    def test_generator_sources_cover_the_three_generators(self):
        frontends = {source.frontend for source in generator_sources()}
        assert frontends == set(FRONTENDS) - {"filament"}
        full = generator_sources(full=True)
        assert len(full) > len(generator_sources())

    def test_design_root_picks_the_uninstantiated_component(self):
        assert design_root(alu_program("sequential")) == "ALU"


class TestAuditBites:
    def test_a_mislabelled_claim_is_a_divergence(self):
        class Lying(AetherlingSource):
            def bundle(self):
                bundle = super().bundle()
                bundle.claim_correct = False
                return bundle

        result = run_frontend_conformance(Lying("conv2d", 1), transactions=4)
        assert not result.passed
        assert any("failed to catch" in line for line in result.divergences)
