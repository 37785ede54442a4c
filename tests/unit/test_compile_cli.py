"""The ``python -m repro.compile`` command-line driver."""

from pathlib import Path

import pytest

from repro.compile import _stage_table, main
from repro.core.frontend import ReticleSource

EXAMPLE = Path(__file__).resolve().parent.parent.parent / "examples" / "pipeline.fil"


@pytest.mark.parametrize("upto", ["check", "lower", "calyx", "verilog"])
def test_compiles_the_example_up_to_every_stage(capsys, upto):
    assert main([str(EXAMPLE), "--upto", upto, "--quiet"]) == 0
    out = capsys.readouterr().out
    target = "'<program>'" if upto == "check" else "'Top'"
    assert f"compiled {target} up to {upto}" in out
    assert "stage" in out and "hits" in out and "misses" in out
    assert "queries:" in out


def test_emit_writes_the_artifact(tmp_path, capsys):
    target = tmp_path / "build" / "top.v"
    assert main([str(EXAMPLE), "--upto", "verilog",
                 "--emit", str(target)]) == 0
    text = target.read_text()
    assert "module Top" in text
    assert "module MacStep" in text


def test_explicit_entry_overrides_the_root(capsys):
    assert main([str(EXAMPLE), "--upto", "calyx", "--entry", "MacStep",
                 "--quiet"]) == 0
    assert "compiled 'MacStep'" in capsys.readouterr().out


def test_unknown_entry_is_a_clean_error(tmp_path, capsys):
    assert main([str(EXAMPLE), "--entry", "Nope", "--quiet"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main([str(tmp_path / "absent.fil")]) == 2
    assert "cannot read" in capsys.readouterr().err


_TWO_ROOTS = """
comp A<G: 1>(@interface[G] go: 1, @[G, G+1] a: 8) -> (@[G, G+1] out: 8) {
  out = a;
}

comp B<G: 1>(@interface[G] go: 1, @[G, G+1] a: 8) -> (@[G, G+1] out: 8) {
  out = a;
}
"""


def test_ambiguous_root_requires_entry(tmp_path, capsys):
    source = tmp_path / "two_roots.fil"
    source.write_text(_TWO_ROOTS)
    assert main([str(source), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "--entry" in err and "A" in err and "B" in err


def test_check_needs_no_entrypoint_even_with_two_roots(tmp_path, capsys):
    source = tmp_path / "two_roots.fil"
    source.write_text(_TWO_ROOTS)
    assert main([str(source), "--upto", "check", "--quiet"]) == 0
    assert "compiled '<program>' up to check" in capsys.readouterr().out


class TestGeneratorFrontends:
    """``--frontend {aetherling,pipelinec,reticle}``: generator designs
    compile through the same session machinery and print the same tables."""

    def test_aetherling_designation_compiles_to_verilog(self, capsys):
        assert main(["--frontend", "aetherling", "conv2d@1/3",
                     "--upto", "verilog", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "compiled 'aetherling_conv2d_d3' up to verilog" in out
        assert "bundle fingerprint" in out
        assert "frontend" in out  # the generator stage has its own row

    def test_default_designs_per_frontend(self, capsys):
        assert main(["--frontend", "pipelinec", "--quiet"]) == 0
        assert "compiled 'FpAdd'" in capsys.readouterr().out
        assert main(["--frontend", "reticle", "--quiet"]) == 0
        assert "compiled 'reticle_tdot'" in capsys.readouterr().out

    def test_upto_check_is_a_filament_only_stage(self, capsys):
        assert main(["--frontend", "reticle", "--upto", "check",
                     "--quiet"]) == 1
        assert "enters the pipeline at the calyx stage" in \
            capsys.readouterr().err

    def test_emit_writes_the_generator_verilog(self, tmp_path, capsys):
        target = tmp_path / "dot9.v"
        assert main(["--frontend", "reticle", "dot9", "--upto", "verilog",
                     "--emit", str(target)]) == 0
        assert "module reticle_dot9" in target.read_text()

    def test_warm_recompile_prints_cache_hits_not_blanks(self):
        # The whole point of the stats table on a warm recompile: its
        # stages are cache hits, zero seconds — the hits must still print.
        bundle = ReticleSource("tdot").bundle()
        session = bundle.session()
        session.verilog(bundle.name)
        session.verilog(bundle.name)
        rows = {line.split()[0]: line.split()[-2:]
                for line in _stage_table(session).splitlines()[1:]}
        assert rows["calyx"] == rows["verilog"] == ["1", "1"]

    def test_missing_filament_source_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--upto", "calyx"])

