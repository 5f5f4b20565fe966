"""The request path leaves no cyclic garbage behind.

Every simulated thread has at most one outstanding request, and its
continuations are built once at spawn; the coherence manager parks
methods with their arguments rather than closures that refer to
themselves.  So a lossless run should hand the cycle collector nothing
per request: whatever ``gc.collect()`` finds after a run with the
collector disabled must stay within a small allowance per thread and
far below one object per hundred simulated messages.
"""

from __future__ import annotations

import gc

import pytest

from repro.apps.graphs import geometric_graph
from repro.apps.placement import PlacementApp, PlacementConfig
from repro.apps.sssp import SSSPApp, SSSPConfig
from repro.core.params import PAPER_PARAMS
from repro.machine import PlusMachine

#: Cyclic objects a run may leave per simulated thread.
PER_THREAD_ALLOWANCE = 4


def placement_machine():
    machine = PlusMachine(
        n_nodes=64, params=PAPER_PARAMS.evolved(topology="torus")
    )
    config = PlacementConfig(
        pages=64, requests=20, affine_offset=1, affine_fraction=0.95
    )
    PlacementApp(machine, config).spawn_workers()
    return machine


def sssp_machine():
    graph = geometric_graph(
        200, degree=5, long_edge_fraction=0.08, max_weight=20, seed=0
    )
    machine = PlusMachine(n_nodes=16)
    SSSPApp(
        machine, graph, SSSPConfig(copies=3, replicate_queues=True)
    ).spawn_workers()
    return machine


@pytest.mark.parametrize("build", [placement_machine, sssp_machine])
def test_lossless_run_leaves_no_cyclic_garbage(build):
    machine = build()
    gc.collect()
    gc.disable()
    try:
        report = machine.run()
    finally:
        found = gc.collect()
        gc.enable()
    threads = sum(len(node.cpu.threads) for node in machine.nodes)
    messages = report.fabric.total_messages
    assert messages > 2000
    assert found <= PER_THREAD_ALLOWANCE * threads, (found, threads)
    assert found * 100 < messages, (found, messages)
