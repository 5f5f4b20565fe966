"""Table 3-1 — PLUS's delayed operations and their execution cost.

The paper tabulates the coherence-manager execution cycles of each
delayed operation (39 for the single-word ops, 52 for the queue ops and
min-xchng).  This benchmark measures each operation end-to-end on the
simulated machine — issue, remote execution, result read — and recovers
the CM execution component by subtracting the documented fixed costs
(25-cycle issue, 10-cycle result read, 24-cycle adjacent round trip,
request-forming overhead), verifying the machine really charges the
Table 3-1 numbers.  The paper column is ``PAPER_PARAMS.op_cycles``,
which ``tests/test_params.py`` pins to the paper's 39 and 52.
"""

import pytest

from repro.parallel.grid import TABLE_3_1, TABLE_3_1_CASES, delayed_op_point

from conftest import record_table, simulate_once

_measured = {}


@pytest.mark.parametrize("op,operand", TABLE_3_1_CASES)
def test_table_3_1_op(benchmark, op, operand):
    point = simulate_once(benchmark, lambda: delayed_op_point(op, operand))
    _measured[op] = point
    benchmark.extra_info["end_to_end_cycles"] = point["end_to_end"]
    benchmark.extra_info["cm_execution_cycles"] = point["cm_execution"]
    assert point["cm_execution"] == point["paper"], (
        f"{op}: measured CM execution {point['cm_execution']}, "
        f"paper says {point['paper']}"
    )

    if len(_measured) == len(TABLE_3_1_CASES):
        record_table(
            TABLE_3_1.title,
            list(TABLE_3_1.columns),
            TABLE_3_1.table_rows({}, list(_measured.values())),
            notes=(
                "end-to-end = 25 issue + 4 request + 24 round trip + "
                "CM execution + 10 result read"
            ),
        )
