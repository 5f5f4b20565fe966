"""Worker-side targets for the daemon's built-in ops.

Like :mod:`repro.parallel.grid`, every function here is a
:class:`~repro.parallel.tasks.SweepTask` target: module-level,
importable by path, picklable kwargs in, a plain JSON-serializable dict
out.  Without ``--space-jobs`` the daemon process imports no simulation
code: these run inside the warm worker pool.  With ``--space-jobs`` a
``space`` request's handler thread calls :func:`space_point` inline and
steps region 0 itself, while the daemon's region fleet steps the rest.
"""

from __future__ import annotations

import time
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


def space_point(
    seed: int,
    faults: bool,
    regions: int,
    window: int,
    jobs: int = 1,
    fleet=None,
) -> Dict[str, Any]:
    """One stress seed on the space-partitioned machine, summarized.

    Dispatched to a pool worker (the default) this runs the in-process
    serial space driver — pool workers are daemonic and cannot spawn
    region processes — over real boundary rings (``transport="shm"``),
    so it moves the same codec bytes the region processes would.  A
    daemon started with ``--space-jobs`` instead calls it inline with
    its warm :class:`~repro.parallel.spacetime.SpaceFleet`
    (``jobs >= 2``): the calling thread steps region 0 and the same
    region worker processes step the rest across requests.  Both paths
    produce byte-identical payloads: every field below is deterministic
    for a given (seed, faults, regions, window) key, which is what
    makes the op cacheable.
    """
    from repro.parallel.spacetime import SpaceSpec, run_checksums, run_space

    spec = SpaceSpec.make(
        "repro.check.stress:build_space_stress",
        {
            "seed": seed,
            "inject_bug": False,
            "faults": faults,
            "chaos": False,
            "fault_overrides": None,
            "regions": regions,
            "window": window,
        },
        label=f"serve space seed {seed}",
    )
    run = run_space(spec, jobs=jobs, transport="shm", fleet=fleet)
    tr = run.transport
    return {
        "seed": seed,
        "ok": run.error is None,
        "error": (
            None
            if run.error is None
            else f"{type(run.error).__name__}: {run.error}"
        ),
        "cycles": run.clock,
        "regions": regions,
        "barriers": tr["barriers"],
        "messages": tr["messages"],
        "transport_bytes": tr["bytes"],
        "checksums": run_checksums(run),
    }


def bench_point(
    workload: str, repeats: int, vertices: int
) -> Dict[str, Any]:
    """Wall-clock timing of one workload (never cached)."""
    walls = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        simulate_point(
            workload,
            nodes=2,
            copies=1,
            vertices=vertices,
            mode="blocking",
            beam=48,
        )
        walls.append(time.perf_counter() - t0)
    return {
        "workload": workload,
        "repeats": len(walls),
        "wall_s_min": round(min(walls), 4),
        "wall_s_mean": round(sum(walls) / len(walls), 4),
    }
