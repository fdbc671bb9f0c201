"""Tests for the command-line interface."""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import build_parser, main

from tests.conftest import PAPER_GOLDENS


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("list", "example", "allocate", "figure", "simulate"):
            args = parser.parse_args(
                [command] + (["figure2"] if command == "figure" else [])
            )
            assert args.command == command

    def test_figure_requires_valid_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "figure99"])


class TestListCommand:
    def test_lists_algorithms_and_figures(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for token in ("drp-cds", "gopt", "vfk", "figure2", "figure7"):
            assert token in output


class TestExampleCommand:
    def test_walks_paper_tables(self, capsys):
        assert main(["example"]) == 0
        output = capsys.readouterr().out
        assert f"{PAPER_GOLDENS['initial_cost']:.1f}" in output  # Table 3(a)
        assert f"{PAPER_GOLDENS['drp_cost']:.2f}" in output      # DRP cost
        assert f"{PAPER_GOLDENS['cds_cost']:.2f}" in output      # CDS cost
        assert "move d10" in output       # first CDS move
        assert "channel 5" in output      # five channels printed


class TestAllocateCommand:
    def test_runs_selected_algorithms(self, capsys):
        code = main(
            [
                "allocate",
                "--items", "20",
                "--channels", "3",
                "--algorithms", "drp", "drp-cds",
                "--seed", "7",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "drp-cds" in output
        assert "lower bound" in output

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            main(
                [
                    "allocate",
                    "--items", "10",
                    "--channels", "2",
                    "--algorithms", "not-an-algo",
                ]
            )


class TestFigureCommand:
    def test_quick_figure_run_with_exports(self, capsys, tmp_path, monkeypatch):
        # Shrink the sweep via replications override; figure6 has only
        # two algorithms and is the fastest.
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code = main(
            [
                "figure", "figure6",
                "--replications", "1",
                "--quiet",
                "--csv", str(csv_path),
                "--json", str(json_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        assert json_path.exists()
        output = capsys.readouterr().out
        assert "mean_elapsed_seconds" in output


class TestSimulateCommand:
    def test_reports_measured_vs_analytical(self, capsys):
        code = main(
            [
                "simulate",
                "--items", "20",
                "--channels", "3",
                "--requests", "2000",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "measured waiting time" in output
        assert "analytical waiting time" in output
        assert "relative error" in output


class TestServeCommand:
    ARGS = [
        "serve",
        "--items", "30",
        "--channels", "3",
        "--epoch-seconds", "5",
        "--max-epochs", "3",
        "--requests-per-epoch", "100",
        "--json",
    ]

    def test_json_reports_the_default_estimator(self, capsys):
        assert main(self.ARGS) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["estimator"] == {"half_life": 10.0, "state_size": 30}
        assert output["total_requests"] == 300
        assert len(output["epochs"]) == 3

    def test_infinite_half_life_counts_plain_occurrences(self, capsys):
        assert main(self.ARGS + ["--half-life", "inf"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert math.isinf(output["estimator"]["half_life"])
        assert output["estimator"]["state_size"] == 30
