"""Shared infrastructure for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper.  The
simulated measurements (the numbers the paper actually reports) are
accumulated here and printed in the terminal summary, so running::

    pytest benchmarks/ --benchmark-only

shows both the wall-clock cost of each simulation (pytest-benchmark's
own report) and the paper-style tables.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.apps.graphs import dijkstra, geometric_graph
from repro.stats.report import format_table

#: (title, headers, rows, notes) tuples accumulated by benchmarks.
_RESULTS: List[tuple] = []


def record_table(title, headers, rows, notes=""):
    """Register a paper-style result table for the terminal summary."""
    _RESULTS.append((title, headers, rows, notes))


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    tr = terminalreporter
    tr.section("paper reproduction results")
    for title, headers, rows, notes in _RESULTS:
        tr.write_line("")
        tr.write_line(format_table(headers, rows, title=title))
        if notes:
            tr.write_line(notes)
    tr.write_line("")


def simulate_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value.

    A simulation is deterministic, so repeating it only burns wall time;
    one round measures the harness cost faithfully.
    """
    result = {}

    def call():
        result["value"] = fn()

    benchmark.pedantic(call, iterations=1, rounds=1)
    return result["value"]


# ----------------------------------------------------------------------
# Cached evaluation workloads (built once per session).
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def sssp_workload_small():
    graph = geometric_graph(
        400, degree=5, long_edge_fraction=0.08, max_weight=20, seed=7
    )
    return graph, dijkstra(graph, 0)
