"""CLI tests for the extension subcommands (adaptive, hetero, gap)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_extension_subcommands_exist(self):
        parser = build_parser()
        for command in ("adaptive", "hetero", "gap"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_hetero_bandwidths_parse_as_floats(self):
        args = build_parser().parse_args(
            ["hetero", "--bandwidths", "20", "10", "5"]
        )
        assert args.bandwidths == [20.0, 10.0, 5.0]


class TestAdaptiveCommand:
    def test_prints_epoch_table(self, capsys):
        code = main(
            [
                "adaptive",
                "--items", "30",
                "--channels", "3",
                "--epochs", "2",
                "--requests", "300",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "static wait" in output
        assert "adaptive wait" in output
        # Two epochs -> two data rows.
        data_lines = [
            line for line in output.splitlines()
            if line.strip().startswith(("0", "1"))
        ]
        assert len(data_lines) == 2


class TestHeteroCommand:
    def test_reports_savings(self, capsys):
        code = main(
            [
                "hetero",
                "--items", "30",
                "--bandwidths", "20", "10", "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "bandwidth-aware" in output
        assert "saves" in output

    def test_aware_never_loses(self, capsys):
        main(["hetero", "--items", "40", "--bandwidths", "30", "5", "5"])
        output = capsys.readouterr().out
        saved = float(output.rsplit("saves ", 1)[1].split("%")[0])
        assert saved >= -1e-9
