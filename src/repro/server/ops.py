"""Worker-side target for the daemon's ``check`` op.

Like the points of :mod:`repro.parallel.grid` (which the ``sweep`` op
dispatches), :func:`check_point` is a
:class:`~repro.parallel.tasks.SweepTask` target: module-level,
importable by path, picklable kwargs in, a plain JSON-serializable dict
out.  The daemon process imports no simulation code: it runs inside
the warm worker pool.
"""

from __future__ import annotations

from typing import Any, Dict


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
