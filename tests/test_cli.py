"""Tests for the command-line interface."""

import shlex

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

    def test_table_2_1_reports_a_diverged_point(self, capsys, monkeypatch):
        # A wrong distance must fail the command with a failure line,
        # under ``python -O`` too: the check is not a bare assert.
        import repro.apps.sssp as sssp

        real = sssp.run_sssp

        def diverged(*args, **kwargs):
            result = real(*args, **kwargs)
            result.distances[-1] += 1
            return result

        monkeypatch.setattr(sssp, "run_sssp", diverged)
        assert main(["table-2-1", "--nodes", "2", "--vertices", "60"]) == 1
        out = capsys.readouterr().out
        assert "copies=1: ERROR — AssertionError: SSSP diverged" in out
        assert "verified" not in out and "Table 2-1" not in out



#: Exact stdout of each paper command at small sizes: the guard that
#: the experiment declarations reproduce the CLI byte for byte.
STDOUT = {
    "list": [
        "available experiments:",
        "  table-2-1    Table 2-1: replication vs messages",
        "  fig-2-1      Figure 2-1: SSSP efficiency/utilization",
        "  table-3-1    Table 3-1: delayed-operation costs",
        "  fig-3-1      Figure 3-1: beam-search sync styles",
        "  costs        Section 3.1 latency budget",
        "  check        coherence oracle over seeded stress runs",
        "  ledger       2PC bank-ledger crash/recovery sweep",
        "  sweep        parameter-grid sweep across worker processes",
        "  serve        run the simulation daemon (JSON lines/socket)",
        "  submit       submit one request to a running daemon",
    ],
    "table-2-1 --nodes 4 --vertices 120": [
        "  copies=1: verified (51,508 cycles)",
        "  copies=2: verified (46,374 cycles)",
        "  copies=3: verified (44,513 cycles)",
        "  copies=4: verified (43,151 cycles)",
        "",
        "Table 2-1 (SSSP, 4 processors)",
        "copies | reads L/R | writes L/R | total/update",
        "-------+-----------+------------+-------------",
        "     1 |      5.74 |       3.36 |         4.50",
        "     2 |     11.60 |       0.55 |         2.27",
        "     3 |     23.61 |       0.55 |         1.66",
        "     4 |       inf |       0.54 |         1.40",
    ],
    "fig-2-1 --max-nodes 4 --vertices 120": [
        "  1 node(s): verified",
        "  2 node(s): verified",
        "  4 node(s): verified",
        "",
        "Figure 2-1 (efficiency): SSSP vs processors",
        "nodes | eff none | util none | eff repl | util repl",
        "------+----------+-----------+----------+----------",
        "    1 |     1.00 |      0.59 |     1.00 |      0.59",
        "    2 |     0.78 |      0.50 |     0.92 |      0.56",
        "    4 |     0.56 |      0.39 |     0.70 |      0.52",
    ],
    "fig-3-1 --nodes 2": [
        "  blocking: verified",
        "  delayed: verified",
        "  ctx16: verified",
        "  ctx40: verified",
        "  ctx140: verified",
        "",
        "Figure 3-1: beam search on 2 nodes",
        "sync style | cycles  | efficiency | utilization",
        "-----------+---------+------------+------------",
        "  blocking |  532992 |       0.92 |        0.48",
        "   delayed |  460422 |       1.07 |        0.56",
        "     ctx16 |  377173 |       1.30 |        0.92",
        "     ctx40 |  480247 |       1.02 |        0.98",
        "    ctx140 | 1011683 |       0.49 |        1.00",
    ],
    "table-3-1": [
        "Table 3-1: delayed operations (adjacent node)",
        "operation     | end-to-end | CM execution | paper",
        "--------------+------------+--------------+------",
        "        xchng |        102 |           39 |    39",
        "   cond-xchng |        102 |           39 |    39",
        "fetch-and-add |        102 |           39 |    39",
        "fetch-and-set |        102 |           39 |    39",
        "        queue |        115 |           52 |    52",
        "      dequeue |        115 |           52 |    52",
        "    min-xchng |        115 |           52 |    52",
        " delayed-read |        102 |           39 |    39",
    ],
    "costs": [
        "Section 3.1 cost model",
        "quantity              | cycles | paper                      ",
        "----------------------+--------+----------------------------",
        "remote read, adjacent |     56 |          32 + 24 round trip",
        "  adjacent round trip |     24 | 24 (measured on the router)",
        "            extra hop |      4 |           4 cycles each way",
        "     delayed-op issue |     25 |                  ~25 cycles",
        "          result read |     10 |                  ~10 cycles",
    ],
    "sweep sssp --nodes 2 --copies 1,2 --vertices 120": [
        "SSSP sweep (120 vertices)",
        "nodes | copies | cycles | messages | utilization | total_over_update",
        "------+--------+--------+----------+-------------+------------------",
        "    2 |      1 |  81348 |      578 |        0.50 |              3.38",
        "    2 |      2 |  79056 |     1896 |        0.51 |              1.94",
        "2 configuration(s) swept, 0 failure(s)",
    ],
    "sweep beam --nodes 2 --modes blocking,delayed --beam 12": [
        "Beam-search sweep (beam 12)",
        "nodes | mode     | cycles | utilization",
        "------+----------+--------+------------",
        "    2 | blocking | 198960 |        0.45",
        "    2 |  delayed | 162962 |        0.53",
        "2 configuration(s) swept, 0 failure(s)",
    ],
    "sweep --placement --nodes 2,4": [
        "Placement-policy sweep (128 hot pages, zipfian skew)",
        "policy    | topology | nodes | cycles | messages | mean_hops | replications | migrations",
        "----------+----------+-------+--------+----------+-----------+--------------+-----------",
        "   static |     mesh |     2 |  13256 |      296 |      1.00 |            0 |          0",
        "   static |     mesh |     4 |  14090 |      776 |      1.20 |            0 |          0",
        "   static |    torus |     2 |  13256 |      296 |      1.00 |            0 |          0",
        "   static |    torus |     4 |  14090 |      776 |      1.20 |            0 |          0",
        "replicate |     mesh |     2 |  21645 |      450 |      1.00 |            3 |          0",
        "replicate |     mesh |     4 |  27513 |     1163 |      1.20 |            7 |          0",
        "replicate |    torus |     2 |  21645 |      450 |      1.00 |            3 |          0",
        "replicate |    torus |     4 |  27513 |     1163 |      1.20 |            7 |          0",
        "  migrate |     mesh |     2 |  22785 |      448 |      1.00 |            0 |          3",
        "  migrate |     mesh |     4 |  27500 |     1154 |      1.20 |            3 |          4",
        "  migrate |    torus |     2 |  22785 |      448 |      1.00 |            0 |          3",
        "  migrate |    torus |     4 |  27500 |     1154 |      1.20 |            3 |          4",
        "12 configuration(s) swept, 0 failure(s)",
    ],
}


@pytest.mark.parametrize("argv", list(STDOUT))
def test_stdout_is_byte_exact(argv, capsys):
    assert main(shlex.split(argv)) == 0
    assert capsys.readouterr().out == "\n".join(STDOUT[argv]) + "\n"
