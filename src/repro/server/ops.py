"""Worker-side targets for the daemon's built-in ops.

Like :mod:`repro.parallel.grid`, every function here is a
:class:`~repro.parallel.tasks.SweepTask` target: module-level,
importable by path, picklable kwargs in, a plain JSON-serializable dict
out.  The daemon process imports no simulation code: these run inside
the warm worker pool.
"""

from __future__ import annotations

from typing import Any, Dict


def simulate_point(
    workload: str,
    nodes: int,
    copies: int,
    vertices: int,
    mode: str,
    beam: int,
) -> Dict[str, Any]:
    """One verified simulation run (Table 2-1 / Figure 3-1 family)."""
    from repro.parallel.grid import beam_point, sssp_point

    if workload == "sssp":
        return sssp_point(nodes=nodes, copies=copies, vertices=vertices)
    return beam_point(mode=mode, nodes=nodes, beam=beam)


def check_point(
    seed: int, faults: bool, inject_bug: bool
) -> Dict[str, Any]:
    """One coherence-oracle stress run, summarized as plain numbers."""
    from repro.check.stress import run_stress

    result = run_stress(seed, inject_bug=inject_bug, faults=faults)
    return {
        "seed": result.seed,
        "ok": result.ok,
        "caught": result.caught,
        "cycles": result.cycles,
        "messages": result.messages,
        "drops": result.drops,
        "dups": result.dups,
        "retransmits": result.retransmits,
        "live_error": result.live_error,
    }
