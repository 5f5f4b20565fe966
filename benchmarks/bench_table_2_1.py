"""Table 2-1 — Effect of Replication on Messages.

Paper values (SSSP, 16 processors, copies 1..5):

    copies  reads L/R  writes L/R  total/update
       1       1.25       3.40        6.18
       2       1.70       1.18        2.91
       3       1.64       0.70        2.24
       4       2.14       0.45        1.89
       5       2.32       0.36        1.68

The absolute ratios depend on the authors' graph (unpublished); what the
table demonstrates — and what this benchmark asserts — is the shape:
replication makes reads more local, makes writes more remote (they must
update the copies), and shifts total traffic towards updates.
"""

import pytest

from repro.parallel.grid import TABLE_2_1, sssp_point

from conftest import record_table, simulate_once

N_NODES = 16
#: Table 2-1's runs as the CLI makes them, keyed by copies.
RUNS = {
    kwargs["copies"]: kwargs
    for _label, kwargs in TABLE_2_1.tasks({"nodes": N_NODES, "vertices": 800})
}
COPIES = tuple(RUNS)

_measured = {}


@pytest.mark.parametrize("copies", COPIES)
def test_table_2_1_row(benchmark, copies):
    # sssp_point raises if the distances differ from Dijkstra's.
    ratios = simulate_once(benchmark, lambda: sssp_point(**RUNS[copies]))
    _measured[copies] = ratios
    benchmark.extra_info.update(ratios)

    if len(_measured) == len(COPIES):
        rows = []
        for c in COPIES:
            m = _measured[c]
            p = TABLE_2_1.paper[c]
            rows.append(
                [
                    c,
                    m["reads_local_over_remote"],
                    p[0],
                    m["writes_local_over_remote"],
                    p[1],
                    m["total_over_update"],
                    p[2],
                ]
            )
        record_table(
            "Table 2-1: Effect of Replication on Messages "
            f"(SSSP, {N_NODES} processors)",
            [
                "copies",
                "reads L/R",
                "(paper)",
                "writes L/R",
                "(paper)",
                "total/update",
                "(paper)",
            ],
            rows,
            notes=(
                "shape check: reads ratio rises, writes ratio falls, "
                "update share of traffic grows with replication"
            ),
        )
        # The monotone trends the paper's table demonstrates.
        reads = [_measured[c]["reads_local_over_remote"] for c in COPIES]
        writes = [_measured[c]["writes_local_over_remote"] for c in COPIES]
        totals = [_measured[c]["total_over_update"] for c in COPIES]
        assert reads[-1] > reads[0], "reads should become more local"
        assert writes[-1] < writes[0], "writes should become more remote"
        assert totals[-1] < totals[0], "updates should dominate traffic"
