"""Figure 2-1 (efficiency) — SSSP efficiency and utilization vs nodes.

The paper's figure shows, for the shortest-path program:

* **without replication** utilization decreases substantially as soon as
  more than 2 processors are used;
* **with replication** (which is what makes queue sharing / work
  stealing cheap) it remains high until the number of processors exceeds
  32, after which most processors idle because the problem is not large
  enough to occupy them.

This benchmark sweeps machine sizes for both configurations, reporting
efficiency = T(1) / (n * T(n)) and the useful-time utilization.
"""

import pytest

from repro.parallel.grid import FIG_2_1, fig21_point

from conftest import record_table, simulate_once

PARAMS = {"max_nodes": 64, "vertices": 800}
#: Figure 2-1's points as the CLI makes them, keyed by processor count.
RUNS = {kwargs["nodes"]: kwargs for _label, kwargs in FIG_2_1.tasks(PARAMS)}
SWEEP = tuple(RUNS)

_measured = {}


@pytest.mark.parametrize("n_nodes", SWEEP)
def test_fig_2_1_point(benchmark, n_nodes):
    # Both configurations at n_nodes, each verified against Dijkstra.
    point = simulate_once(benchmark, lambda: fig21_point(**RUNS[n_nodes]))
    _measured[n_nodes] = point
    benchmark.extra_info.update(point)

    if len(_measured) == len(SWEEP):
        record_table(
            FIG_2_1.title,
            list(FIG_2_1.columns),
            FIG_2_1.table_rows(PARAMS, [_measured[n] for n in SWEEP]),
            notes=(
                "paper: no-replication utilization collapses past 2 "
                "processors; replication holds up until the problem runs "
                "out of parallelism"
            ),
        )
        # The figure's qualitative claims.
        none_util = {n: _measured[n]["none_util"] for n in SWEEP}
        repl_util = {n: _measured[n]["repl_util"] for n in SWEEP}
        repl_cycles = {n: _measured[n]["repl_cycles"] for n in SWEEP}
        none_cycles = {n: _measured[n]["none_cycles"] for n in SWEEP}
        # Without replication, utilization collapses early.
        assert none_util[16] < none_util[2] * 0.75
        # Replication keeps utilization well above the baseline at scale.
        for n in (4, 8, 16, 32):
            assert repl_util[n] > none_util[n]
        # And it is never slower in elapsed time at scale.
        for n in (4, 8, 16, 32):
            assert repl_cycles[n] < none_cycles[n] * 1.05
