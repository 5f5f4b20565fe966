"""Section 3.1 cost model — delayed-operation and remote-read latency.

The paper gives a complete latency budget: ~25 cycles to issue a delayed
operation, per-op coherence-manager time (Table 3-1), ~10 cycles to read
an available result, a 24-cycle adjacent round trip with 4 cycles per
extra hop, and a remote blocking read of ~32 cycles plus the round trip.
This benchmark measures those quantities on the simulated machine and
checks each against the formula.
"""

from repro.core.params import PAPER_PARAMS, OpCode
from repro.parallel.grid import (
    delayed_op_point,
    pipelined_fetch_add_point,
    remote_read_point,
)

from conftest import record_table, simulate_once

_rows = []
_EXPECTED_ROWS = 5


def _finish():
    if len(_rows) == _EXPECTED_ROWS:
        record_table(
            "Section 3.1 cost model",
            ["measurement", "measured cycles", "paper formula", "expected"],
            list(_rows),
        )


def _remote_read_cycles(hops):
    return remote_read_point(hops)["cycles"]


def test_remote_read_adjacent(benchmark):
    measured = simulate_once(benchmark, lambda: _remote_read_cycles(1))
    expected = 32 + 24
    _rows.append(
        ["remote read, 1 hop", measured, "32 + round trip(24)", expected]
    )
    _finish()
    assert measured == expected


def test_remote_read_extra_hops(benchmark):
    measured = simulate_once(benchmark, lambda: _remote_read_cycles(3))
    expected = 32 + 24 + 2 * 2 * PAPER_PARAMS.net_hop_cycles
    _rows.append(
        [
            "remote read, 3 hops",
            measured,
            "32 + 24 + 2 hops x 4 x 2 ways",
            expected,
        ]
    )
    _finish()
    assert measured == expected


def _delayed_op_cycles(local):
    point = delayed_op_point("fetch-and-add", 1, home=0 if local else 1)
    return point["end_to_end"]


def test_delayed_op_local(benchmark):
    measured = simulate_once(benchmark, lambda: _delayed_op_cycles(True))
    p = PAPER_PARAMS
    expected = (
        p.issue_delayed_cycles
        + p.cm_forward_cycles
        + p.op_cycles[OpCode.FETCH_ADD]
        + p.read_result_cycles
    )
    _rows.append(
        [
            "fetch-add, local master",
            measured,
            "25 issue + 4 + 39 CM + 10 read",
            expected,
        ]
    )
    _finish()
    assert measured == expected


def test_delayed_op_remote(benchmark):
    measured = simulate_once(benchmark, lambda: _delayed_op_cycles(False))
    p = PAPER_PARAMS
    expected = (
        p.issue_delayed_cycles
        + p.cm_forward_cycles
        + 2 * p.one_way_latency(1)
        + p.op_cycles[OpCode.FETCH_ADD]
        + p.read_result_cycles
    )
    _rows.append(
        [
            "fetch-add, adjacent master",
            measured,
            "25 + 4 + 24 RT + 39 CM + 10",
            expected,
        ]
    )
    _finish()
    assert measured == expected


def test_pipelining_amortises_round_trips(benchmark):
    """Eight pipelined remote ops approach one round trip plus eight CM
    executions, instead of eight full round trips."""
    measured = simulate_once(
        benchmark, lambda: pipelined_fetch_add_point(8)["cycles"]
    )
    blocking_estimate = 8 * (25 + 4 + 24 + 39 + 10)
    _rows.append(
        [
            "8 pipelined remote fetch-adds",
            measured,
            f"<< 8 blocking ops ({blocking_estimate})",
            f"< {blocking_estimate * 2 // 3}",
        ]
    )
    _finish()
    assert measured < blocking_estimate * 2 // 3
