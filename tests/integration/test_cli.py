"""The experiments CLI: dispatch, output, JSON persistence."""

import json

import pytest

from repro.experiments.cli import EXPERIMENTS, main


class TestCli:
    def test_all_paper_artifacts_have_regenerators(self):
        for artifact in ("table1", "table2", "table3", "fig5", "fig6",
                         "fig7", "fig8"):
            assert artifact in EXPERIMENTS

    def test_table2_command_prints_paper_comparison(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "SPP-Net #2" in out
        assert "paper reported" in out

    def test_out_writes_json(self, tmp_path, capsys):
        main(["table2", "--out", str(tmp_path)])
        path = tmp_path / "table2.json"
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["experiment_id"] == "table2"
        assert len(data["rows"]) == 4

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_fast_flag_accepted(self, capsys):
        assert main(["ablation-spp", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "SPP-layer ablation" in out
        assert "single pool 1 (GAP)" in out
