"""The paper's primary contribution: coherence protocol + delayed ops."""

from repro import _lazy

__all__ = [
    "CMTables",
    "CoherenceManager",
    "CopyList",
    "DelayedOpsCache",
    "OpCode",
    "OpOutcome",
    "PAPER_PARAMS",
    "PendingWrites",
    "TimingParams",
    "Token",
    "execute_op",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "coherence": ["CoherenceManager"],
    "copylist": ["CMTables", "CopyList"],
    "delayed": ["DelayedOpsCache", "Token"],
    "ops": ["OpOutcome", "execute_op"],
    "params": ["PAPER_PARAMS", "OpCode", "TimingParams"],
    "pending": ["PendingWrites"],
})
