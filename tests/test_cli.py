"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_list_is_default(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "table-2-1" in capsys.readouterr().out

    def test_unknown_command_errors(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
        # Removed commands and flags are usage errors, not tracebacks.
        for argv in (
            ["run", "sssp"],
            ["check", "--seed", "3", "--space-jobs", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "Traceback" not in capsys.readouterr().err

    def test_argument_defaults(self):
        args = build_parser().parse_args(["table-2-1"])
        assert args.nodes == 16
        args = build_parser().parse_args(["fig-3-1", "--nodes", "4"])
        assert args.nodes == 4


class TestCommands:
    def test_costs_prints_the_budget(self, capsys):
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "remote read, adjacent" in out
        assert "56" in out

    def test_table_3_1_matches_paper(self, capsys):
        assert main(["table-3-1"]) == 0
        out = capsys.readouterr().out
        assert "queue" in out and "52" in out and "39" in out

    def test_table_2_1_small(self, capsys):
        assert main(["table-2-1", "--nodes", "4", "--vertices", "120"]) == 0
        out = capsys.readouterr().out
        assert "Table 2-1" in out
        assert "verified" in out

    def test_fig_2_1_small(self, capsys):
        assert (
            main(["fig-2-1", "--max-nodes", "4", "--vertices", "120"]) == 0
        )
        out = capsys.readouterr().out
        assert "Figure 2-1" in out

