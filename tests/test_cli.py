"""Tests for the figure-regeneration CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import FIGURES, main


class TestCLI:
    def test_list_prints_every_figure(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_fig3_runs_and_prints_table(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "image_utility" in out

    def test_out_file_written(self, tmp_path, capsys):
        target = tmp_path / "fig3.txt"
        assert main(["fig3", "--out", str(target)]) == 0
        capsys.readouterr()
        assert "vis_utility" in target.read_text()

    def test_fig15_micro_driver(self, capsys):
        assert main(["fig15"]) == 0
        assert "runtime_ms" in capsys.readouterr().out

    def test_fleet_command_prints_per_session_and_aggregate(self, capsys):
        assert main(["fleet", "--sessions", "2", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "link fairness" in out
        assert "fleet" in out

    def test_fleet_churn_command_reports_admissions(self, capsys):
        assert (
            main(
                [
                    "fleet", "--sessions", "3", "--scale", "quick",
                    "--arrivals", "0.8", "--dwell", "3",
                    "--max-concurrent", "2", "--predictor", "shared-markov",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "admitted" in out
        assert "early hit" in out
        assert "cohort_s" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--scale", "galactic"])

    def test_import_does_not_load_scipy(self):
        """scipy serves only the ILP solver, so importing the CLI (which
        every shard worker and served process does) must not pay for it."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestServeCLI:
    def test_prior_flags_require_shared_markov(self, tmp_path):
        with pytest.raises(SystemExit, match="shared-markov"):
            main(["serve", "--prior-out", str(tmp_path / "p.npz")])

    def test_serve_run_for_boots_and_exits_cleanly(self, capsys):
        """Full boot on an ephemeral port: bind, announce, drain, stats."""
        assert main(["serve", "--port", "0", "--run-for", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "serving on ws://127.0.0.1:" in out
        assert "served: 0 admitted" in out

    def test_serve_prior_out_persists_crowd_prior(self, tmp_path, capsys):
        from repro.predictors.shared import SharedTransitionPrior

        path = tmp_path / "crowd.npz"
        assert (
            main(
                [
                    "serve", "--port", "0", "--run-for", "0.2",
                    "--predictor", "shared-markov",
                    "--prior-out", str(path),
                ]
            )
            == 0
        )
        assert "prior: saved 0 transitions" in capsys.readouterr().out
        loaded = SharedTransitionPrior.load(path)
        assert loaded.transitions_observed == 0
