"""The coverage ledger: merge semantics, serialization round-trips across
every histogram field (including the native-tier views), and the
op x width-bucket x engine-path cell machinery the steering loop feeds on."""

import json

import pytest

from repro.conformance import (
    CoverageLedger,
    CoverageRecord,
    cell_universe,
    cells_of_record,
    width_bucket,
)


def _full_record(seed=1):
    """A record with every field set away from its default."""
    return CoverageRecord(
        name=f"Gen{seed}",
        seed=seed,
        ii=3,
        statements=9,
        ops={"add": 2, "mult": 1, "eq": 1},
        widths=[1, 8, 16],
        shared_instances=1,
        scheduled=False,
        fallback_components=["Gen1"],
        fallback_reasons={"Gen1": "combinational-cycle"},
        stimulus_has_x=True,
        transactions=12,
        lanes=4,
        kernel=True,
        kernel_fallback=None,
        native=False,
        native_fallback="black-box primitive Tdot: 'prim' in Gen1",
        native_lanes=False,
        native_lanes_fallback="native(black-box primitive Tdot: 'prim')",
        incremental=True,
        incremental_mutation="op-kind",
        divergences=0,
        regime="blackbox",
        op_widths={"add": [8, 16], "eq": [1], "mult": [16]},
        x_transactions=5,
        plan_digest="abcdef012345",
        fault_seed=7,
        fault_degradations={"injected:torn-write": 2, "digest-mismatch": 1},
    )


def test_record_round_trips_through_dict():
    record = _full_record()
    assert CoverageRecord.from_dict(record.to_dict()) == record


def test_record_from_legacy_dict_defaults_new_fields():
    """Ledgers written before the steering fields existed still load."""
    legacy = _full_record().to_dict()
    for key in ("regime", "op_widths", "x_transactions", "plan_digest",
                "fault_seed", "fault_degradations", "native_lanes",
                "native_lanes_fallback"):
        del legacy[key]
    record = CoverageRecord.from_dict(legacy)
    assert record.regime == "dataflow"
    assert record.op_widths == {}
    assert record.x_transactions == 0
    assert record.plan_digest is None
    assert record.fault_seed is None
    assert record.fault_degradations == {}
    assert record.native_lanes is None
    assert record.native_lanes_fallback is None


def test_fault_degradations_merge_across_records():
    ledger = CoverageLedger([_full_record(1), _full_record(2)])
    assert ledger.fault_runs() == 2
    assert ledger.fault_degradation_histogram() == {
        "digest-mismatch": 2, "injected:torn-write": 4}
    assert "fault-injected runs: 2/2" in ledger.summary()
    assert ledger.to_dict()["fault_degradations"] == {
        "digest-mismatch": 2, "injected:torn-write": 4}


def test_merge_concatenates_and_leaves_operands_untouched():
    left = CoverageLedger([_full_record(1)])
    right = CoverageLedger([_full_record(2), _full_record(3)])
    merged = left.merge(right)
    assert merged.programs == 3
    assert [r.seed for r in merged.records] == [1, 2, 3]
    assert left.programs == 1 and right.programs == 2


def test_merged_histograms_cover_every_field():
    native_ok = CoverageRecord(
        name="GenA", seed=10, ops={"sub": 1}, widths=[32],
        scheduled=True, kernel=True, native=True, native_lanes=True,
        incremental=True, incremental_mutation="const",
        op_widths={"sub": [32]},
    )
    merged = CoverageLedger([_full_record()]).merge(
        CoverageLedger([native_ok]))
    assert merged.op_histogram() == {"add": 2, "eq": 1, "mult": 1, "sub": 1}
    assert merged.width_histogram() == {1: 1, 8: 1, 16: 1, 32: 1}
    assert merged.ii_histogram() == {1: 1, 3: 1}
    assert merged.engine_paths() == {"scheduled": 1, "fallback": 1}
    assert merged.fallback_reason_histogram() == {"combinational-cycle": 1}
    assert merged.kernel_paths() == {
        "kernel": 2, "interpreter": 0, "not-attempted": 0}
    assert merged.native_paths() == {
        "native": 1, "fallback": 1, "not-attempted": 0, "lane-native": 1}
    assert merged.native_fallback_histogram() == {
        "black-box primitive Tdot: 'prim' in Gen1": 1}
    assert merged.native_lanes_fallback_histogram() == {
        "native(black-box primitive Tdot: 'prim')": 1}
    assert merged.incremental_mutation_histogram() == {
        "const": 1, "op-kind": 1}


def test_ledger_round_trips_through_dict(tmp_path):
    ledger = CoverageLedger([_full_record(1), _full_record(2)])
    reloaded = CoverageLedger.from_dict(ledger.to_dict())
    assert reloaded.records == ledger.records
    # ... and through the JSON file the CI artifact uses.
    path = ledger.save(tmp_path / "ledger.json")
    assert CoverageLedger.load(path).records == ledger.records


def test_ledger_to_dict_reports_cell_coverage():
    data = CoverageLedger([_full_record()]).to_dict()
    cover = data["cell_coverage"]
    assert cover["universe"] == len(cell_universe())
    assert 0 < cover["covered"] < cover["universe"]
    assert len(cover["uncovered"]) == cover["universe"] - cover["covered"]
    json.dumps(data)  # must stay JSON-serializable


@pytest.mark.parametrize("width,bucket", [
    (1, "1"), (2, "2-8"), (8, "2-8"), (9, "9-16"), (16, "9-16"),
    (17, "17-32"), (32, "17-32"), (33, "33-64"), (64, "33-64"),
    (65, "65+"), (1000, "65+"),
])
def test_width_bucket_boundaries(width, bucket):
    assert width_bucket(width) == bucket


def test_cell_universe_excludes_unreachable_cells():
    universe = cell_universe()
    # Compares only ever produce width-1 results.
    assert ("op", "eq", "1", "kernel") in universe
    assert ("op", "eq", "2-8", "kernel") not in universe
    # Tdot is pinned to width 8 and can never lower to the native tier —
    # neither the scalar entry nor the lane entry.
    assert ("op", "tdot", "2-8", "kernel") in universe
    assert ("op", "tdot", "2-8", "native") not in universe
    assert ("op", "tdot", "2-8", "native-lanes") not in universe
    assert ("op", "tdot", "9-16", "kernel") not in universe
    # The lane path is a first-class cell dimension for every other op.
    assert ("op", "add", "33-64", "native-lanes") in universe


def test_cells_of_record_tracks_engine_paths_and_aux_bins():
    cells = cells_of_record(_full_record())
    # scheduled=False means the sweep path, not the levelized schedule.
    assert ("op", "add", "2-8", "kernel") in cells
    assert ("op", "add", "9-16", "kernel") in cells
    assert ("op", "add", "2-8", "scheduled") not in cells
    assert ("op", "add", "2-8", "native") not in cells
    assert ("op", "add", "2-8", "native-lanes") not in cells
    assert ("regime", "blackbox") in cells
    assert ("ii", 3) in cells
    # The lane way ran (lanes=4) but fell back to N scalar runs: only a
    # native-lane run proves a lanes cell.
    assert not any(cell[0] == "lanes" for cell in cells)
    assert ("sharing", "shared") in cells
    assert ("mutation", "op-kind") in cells
    assert ("sweep-fallback", "combinational-cycle") in cells
    # 5 of 12 transactions dropped ports -> "heavy" X bin.
    assert ("x", "heavy") in cells
    # Quoted instance names are elided so reasons bin stably.
    assert ("native-fallback", "black-box primitive Tdot: * in Gen1") in cells
    assert ("native-lanes-fallback",
            "native(black-box primitive Tdot: *)") in cells
    lane_cells = cells_of_record(CoverageRecord(
        name="GenL", ops={"add": 1}, widths=[8], scheduled=True,
        native=True, native_lanes=True, lanes=4, op_widths={"add": [8]}))
    assert ("op", "add", "2-8", "native-lanes") in lane_cells
    assert ("lanes", "native") in lane_cells


def test_x_bins_split_on_drop_density():
    none = CoverageRecord(name="G", transactions=12, x_transactions=0)
    some = CoverageRecord(name="G", transactions=12, x_transactions=4)
    heavy = CoverageRecord(name="G", transactions=12, x_transactions=5)
    assert ("x", "none") in cells_of_record(none)
    assert ("x", "some") in cells_of_record(some)
    assert ("x", "heavy") in cells_of_record(heavy)


def test_uncovered_cells_shrink_as_coverage_merges_in():
    empty = CoverageLedger()
    assert set(empty.uncovered_cells()) == cell_universe()
    one = CoverageLedger([_full_record()])
    merged = one.merge(CoverageLedger([CoverageRecord(
        name="GenB", seed=2, ops={"xor": 1}, widths=[64],
        scheduled=True, kernel=True, native=True,
        op_widths={"xor": [64]})]))
    assert len(merged.uncovered_cells()) < len(one.uncovered_cells())
    assert set(merged.uncovered_cells()).isdisjoint(merged.covered_cells())


def test_summary_reports_cell_coverage_and_uncovered_sample():
    summary = CoverageLedger([_full_record()]).summary()
    assert "cell coverage:" in summary
    assert "lane way, streams per run: [4]" in summary
    assert "uncovered cells (" in summary
    assert "regimes:" in summary
    # The sample is op/bucket/path triples.
    assert "/" in summary.split("uncovered cells", 1)[1]


class TestFrontendAndVerilogLoopFields:
    """The PR-8 ledger fields: which frontend a design entered through and
    whether the Verilog loop closed."""

    def _records(self):
        closed = _full_record(1)
        closed.frontend = "aetherling"
        closed.verilog_reimport = True
        diverged = _full_record(2)
        diverged.frontend = "reticle"
        diverged.verilog_reimport = False
        skipped = _full_record(3)  # plain fuzz record, way disabled
        return [closed, diverged, skipped]

    def test_fields_round_trip_through_dict(self):
        record = self._records()[0]
        rebuilt = CoverageRecord.from_dict(record.to_dict())
        assert rebuilt.frontend == "aetherling"
        assert rebuilt.verilog_reimport is True

    def test_legacy_dicts_default_the_new_fields(self):
        legacy = _full_record().to_dict()
        del legacy["frontend"]
        del legacy["verilog_reimport"]
        record = CoverageRecord.from_dict(legacy)
        assert record.frontend is None
        assert record.verilog_reimport is None

    def test_ledger_aggregates_the_loop_and_frontend_views(self):
        ledger = CoverageLedger(self._records())
        assert ledger.verilog_reimport_paths() == {
            "closed": 1, "diverged": 1, "skipped": 1}
        assert ledger.frontend_histogram() == {
            "aetherling": 1, "reticle": 1}
        data = ledger.to_dict()
        assert data["verilog_reimport"]["closed"] == 1
        assert data["frontends"] == {"aetherling": 1, "reticle": 1}

    def test_summary_reports_the_loop_and_frontends(self):
        summary = CoverageLedger(self._records()).summary()
        assert "verilog loop: 1 closed, 1 diverged, 1 skipped" in summary
        assert "frontends: {'aetherling': 1, 'reticle': 1}" in summary

    def test_summary_omits_the_loop_line_when_never_run(self):
        summary = CoverageLedger([_full_record()]).summary()
        assert "verilog loop" not in summary
        assert "frontends:" not in summary
