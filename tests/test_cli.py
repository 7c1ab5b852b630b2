"""Tests for the command-line tool (repro.cli)."""

import json

import pytest

from repro import cli


class TestCli:
    def test_molecule_compile(self, capsys):
        assert cli.main(["--bench", "LiH", "--blocks", "6", "--device", "linear"]) == 0
        out = capsys.readouterr().out
        assert "tetris" in out
        assert "cnot" in out

    def test_qaoa_compile(self, capsys):
        assert (
            cli.main(
                ["--bench", "Rand-16", "--compiler", "tetris-qaoa",
                 "--device", "ithaca"]
            )
            == 0
        )
        assert "tetris-qaoa" in capsys.readouterr().out

    def test_qasm_output(self, tmp_path, capsys):
        path = str(tmp_path / "out.qasm")
        cli.main(
            ["--bench", "LiH", "--blocks", "3", "--device", "linear",
             "--qasm", path]
        )
        with open(path) as handle:
            assert handle.readline().strip() == "OPENQASM 2.0;"

    def test_every_compiler_runs(self, capsys):
        for name in ("paulihedral", "max-cancel", "tket-like", "pcoast-like"):
            assert (
                cli.main(
                    ["--bench", "LiH", "--blocks", "4", "--device", "linear",
                     "--compiler", name]
                )
                == 0
            )

    def test_list_pipelines(self, capsys):
        assert cli.main(["--list-pipelines"]) == 0
        out = capsys.readouterr().out
        assert "pipeline spec grammar" in out
        assert "tetris[:no-lookahead|no-gray" in out
        assert "variant no-gray: sort_strings=False" in out
        assert "param alias w -> swap_weight" in out
        # the pass vocabulary for custom spec lists is included
        assert "synth-tetris:" in out
        assert "order-similarity:" in out

    def test_report_subcommand_dispatches(self, capsys):
        assert cli.main(["report", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig24" in out

    def test_batch_matrix_refuses_an_unknown_parameter(
        self, tmp_path, capsys
    ):
        matrix = tmp_path / "jobs.json"
        matrix.write_text(json.dumps(
            [{"bench": "LiH", "params": {"enable_bridging": False}}]
        ))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["batch", "--matrix", str(matrix), "--no-cache"])
        assert exit_info.value.code == 2
        assert "accepted: ['lookahead', 'noise_aware', 'select'" in (
            capsys.readouterr().err
        )

    def test_unknown_device(self):
        with pytest.raises(SystemExit):
            cli.main(["--bench", "LiH", "--device", "torus"])

    @pytest.mark.parametrize("flags, message", [
        (["--compiler", "tetris:noise-aware+select=20"],
         "cannot select 20 qubits from a 16-qubit device"),
        (["--calibration-seed", "-1"], "non-negative seed"),
        # Tetris has no block bridging: its old variant and parameter
        # are refused with the accepted vocabulary.
        (["--compiler", "tetris:no-bridge"],
         "named variants: ['no-gray', 'no-lookahead', 'noise-aware']"),
        (["--compiler", "tetris:enable_bridging=false"],
         "unknown parameter 'enable_bridging' for pipeline 'tetris'; "
         "accepted: ["),
    ], ids=["region-wider-than-device", "negative-calibration-seed",
            "removed-variant", "removed-parameter"])
    def test_bad_job_is_a_usage_error(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(
                ["--bench", "LiH", "--blocks", "4", "--device", "grid:4x4",
                 *flags]
            )
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

