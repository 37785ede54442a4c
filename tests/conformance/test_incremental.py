"""The incremental-recompilation differential way: a seeded in-place
mutation of one component, recompiled through the same session, must be
byte-identical to a from-scratch compile of the mutated program, and its
incrementally rebuilt kernel must trace like the from-scratch netlist."""

import pytest

from repro.conformance import generate, generate_spec, mutate_spec, run_conformance
from repro.conformance.coverage import CoverageRecord


class TestMutateSpec:
    def test_mutation_is_deterministic(self):
        spec = generate_spec(3)
        assert mutate_spec(spec, 7) == mutate_spec(spec, 7)

    def test_mutation_changes_the_spec(self):
        for seed in range(12):
            spec = generate_spec(seed)
            mutation = mutate_spec(spec, seed)
            if mutation is None:
                continue
            mutated, kind = mutation
            assert mutated != spec
            assert kind in ("const", "op-kind", "input-width")
            assert mutated.name == spec.name

    def test_mutated_specs_stay_well_typed(self):
        """Every mutation family must preserve well-typedness: the mutated
        spec builds and passes the full check/compile pipeline."""
        from repro.conformance import build
        from repro.core import CompilationSession
        exercised = set()
        for seed in range(25):
            spec = generate_spec(seed)
            mutation = mutate_spec(spec, seed)
            if mutation is None:
                continue
            mutated, kind = mutation
            exercised.add(kind)
            generated = build(mutated)
            CompilationSession(generated.program).calyx(mutated.name)
        assert "const" in exercised or "op-kind" in exercised

    def test_different_seeds_can_pick_different_sites(self):
        spec = generate_spec(5)
        results = {mutate_spec(spec, seed) for seed in range(8)}
        results.discard(None)
        assert len(results) > 1


class TestIncrementalWay:
    @pytest.mark.parametrize("seed", range(0, 8))
    def test_incremental_recompile_matches_scratch(self, seed):
        result = run_conformance(generate(seed), transactions=4, seed=seed)
        assert result.passed, str(result)

    def test_coverage_records_the_way(self):
        for seed in range(6):
            generated = generate(seed)
            if mutate_spec(generated.spec, seed) is None:
                continue
            result = run_conformance(generated, transactions=4, seed=seed)
            assert result.coverage.incremental
            assert result.coverage.incremental_mutation in (
                "const", "op-kind", "input-width")
            return
        pytest.skip("no mutable seed in range")

    def test_a_stale_kernel_is_caught(self, monkeypatch):
        """The edited component's kernel must be rebuilt: serving its
        pre-edit program again (a stale plan or chunk would) traces unlike
        the from-scratch reference, and only this way notices."""
        from repro.sim import codegen

        built = {}

        def first_kernel(engine, kernel_for=codegen.kernel_for):
            name = engine.component.name
            if name not in built:
                built[name] = kernel_for(engine)
            return built[name]

        monkeypatch.setattr(codegen, "kernel_for", first_kernel)
        generated = generate(2)
        assert mutate_spec(generated.spec, 2)[1] == "op-kind"
        result = run_conformance(generated, transactions=6, seed=2)
        assert result.divergences
        assert all(divergence.startswith(
            "incremental: engine incremental compiled vs from-scratch "
            "fixpoint: ") for divergence in result.divergences), result

    def test_way_can_be_disabled(self):
        generated = generate(1)
        result = run_conformance(generated, transactions=4, seed=1,
                                 incremental=False)
        assert result.passed, str(result)
        assert not result.coverage.incremental
        assert result.coverage.incremental_mutation is None

    def test_record_roundtrips_through_the_ledger(self):
        record = CoverageRecord(name="t", incremental=True,
                                incremental_mutation="const")
        assert CoverageRecord.from_dict(record.to_dict()).incremental
        # Old ledgers without the new fields still load.
        legacy = record.to_dict()
        del legacy["incremental"], legacy["incremental_mutation"]
        loaded = CoverageRecord.from_dict(legacy)
        assert not loaded.incremental
