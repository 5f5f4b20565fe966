"""Instrumentation: counters and run reports."""

from repro import _lazy

__all__ = [
    "MachineCounters",
    "NodeCounters",
    "ProtocolTrace",
    "RequestTimer",
    "RunReport",
    "ServiceStats",
    "TraceEntry",
    "format_table",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "counters": ["MachineCounters", "NodeCounters"],
    "report": ["RunReport", "format_table"],
    "service": ["RequestTimer", "ServiceStats"],
    "trace": ["ProtocolTrace", "TraceEntry"],
})
