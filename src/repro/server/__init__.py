"""``repro serve``: the long-running simulation service.

The daemon (:mod:`repro.server.daemon`) serves ``check`` / ``sweep``
requests from many concurrent clients over JSON lines,
canonicalizes parameters into deterministic cache keys
(:mod:`repro.server.protocol`, :mod:`repro.server.cache`), memoizes
finished results, and dispatches misses onto a long-lived
:class:`~repro.parallel.executor.WorkerPool`.  The client side
(:mod:`repro.server.client`) backs the ``repro submit`` CLI.
"""

from repro import _lazy

__all__ = [
    "OPS",
    "DaemonUnavailable",
    "OpSpec",
    "Param",
    "ProtocolError",
    "ReproClient",
    "ReproDaemon",
    "ResultCache",
    "canonical_key",
    "get_op",
    "register_op",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "cache": ["ResultCache", "canonical_key"],
    "client": ["DaemonUnavailable", "ReproClient"],
    "daemon": ["ReproDaemon"],
    "protocol": [
        "OPS", "OpSpec", "Param", "ProtocolError", "get_op", "register_op",
    ],
})
