"""Correctness checking: coherence oracle, live invariants, stress harness.

This package model-checks the simulator against itself:

* :mod:`repro.check.oracle` — a sequential reference model that replays
  a :class:`~repro.stats.trace.ProtocolTrace` capture and verifies the
  paper's *general coherence* claim after a full drain.
* :mod:`repro.check.invariants` — live checkers installed through the
  fabric trace hook that fail the run at the first protocol violation.
* :mod:`repro.check.stress` — a seeded random workload generator with
  fault-injection knobs (link-latency jitter, randomized same-cycle
  event ordering, deliberate protocol mutations, and — with
  ``--faults`` — a fully unreliable mesh that the recovery layer must
  hide), driven by ``python -m repro check``.
"""

from repro import _lazy

__all__ = [
    "CoherenceOracle",
    "InvariantMonitor",
    "JitteredLinkModel",
    "OracleReport",
    "StressConfig",
    "StressResult",
    "Violation",
    "inject_skip_last_hop",
    "run_seeds",
    "run_stress",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "invariants": ["InvariantMonitor"],
    "oracle": ["CoherenceOracle", "OracleReport", "Violation"],
    "stress": [
        "JitteredLinkModel", "StressConfig", "StressResult",
        "inject_skip_last_hop", "run_seeds", "run_stress",
    ],
})
