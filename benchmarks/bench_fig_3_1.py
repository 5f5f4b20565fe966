"""Figure 3-1 — beam-search efficiency under different sync costs.

The paper compares, for the beam-search decoder: blocking
synchronization, delayed (split-phase) operations, and context switching
on every synchronization issue at 16, 40 and 140 cycles.  The reported
findings, which this benchmark asserts:

* very fast (16-cycle) context switching performs best;
* delayed operations beat a 40-cycle context-switch mechanism;
* expensive (140-cycle) switches are the worst way to hide latency.

Efficiency is measured against the single-node blocking run of the same
decoder.
"""

import pytest

from repro.parallel.grid import BEAM_MODES, FIG_3_1, beam_point

from conftest import record_table, simulate_once

SWEEP = (2, 4, 8, 16)

_measured = {}
_base = {}


def _run(n_nodes, label):
    """The run ``python -m repro fig-3-1 --nodes n_nodes`` labels
    ``label`` ("base" or a mode); beam_point raises if it diverges
    from the sequential reference."""
    kwargs = dict(FIG_3_1.tasks({"nodes": n_nodes}))[label]
    return beam_point(**kwargs)


def test_fig_3_1_baseline(benchmark):
    """The single-node blocking run every efficiency is measured against."""
    point = simulate_once(benchmark, lambda: _run(1, "base"))
    _base["cycles"] = point["cycles"]
    benchmark.extra_info["cycles"] = point["cycles"]


@pytest.mark.parametrize("mode", BEAM_MODES)
@pytest.mark.parametrize("n_nodes", SWEEP)
def test_fig_3_1_point(benchmark, mode, n_nodes):
    point = simulate_once(benchmark, lambda: _run(n_nodes, mode))
    _measured[(mode, n_nodes)] = point["cycles"]
    benchmark.extra_info["cycles"] = point["cycles"]

    if len(_measured) == len(BEAM_MODES) * len(SWEEP):
        base = _base["cycles"]
        rows = []
        for n in SWEEP:
            rows.append(
                [n]
                + [
                    base / (n * _measured[(m, n)])
                    for m in BEAM_MODES
                ]
            )
        record_table(
            "Figure 3-1: beam-search efficiency by synchronization style",
            ["nodes"] + list(BEAM_MODES),
            rows,
            notes=(
                "paper ordering at moderate scale: ctx16 best, delayed "
                "beats ctx40, 140-cycle switches are the worst"
            ),
        )
        # The paper's two explicit claims, at every swept size >= 4.
        for n in (4, 8, 16):
            assert _measured[("ctx16", n)] < _measured[("ctx40", n)]
            assert _measured[("delayed", n)] < _measured[("ctx40", n)]
            assert _measured[("ctx40", n)] < _measured[("ctx140", n)]
            assert _measured[("delayed", n)] < _measured[("blocking", n)]
