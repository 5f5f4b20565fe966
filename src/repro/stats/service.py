"""Service-side counters for the ``repro serve`` daemon.

:class:`ServiceStats` aggregates what the daemon has done since boot —
requests by outcome, cache traffic, coalesced followers, crash
recoveries — and every response envelope carries a snapshot, so any
client (and the CI smoke job) can assert on daemon behavior without a
separate metrics endpoint.
"""

from __future__ import annotations

import threading
import time
from typing import Dict


class RequestTimer:
    """Wall-clock phases of one request: queued → running → done.

    ``queued_ms`` covers admission + time waiting for a warm worker;
    ``run_ms`` is the task's own execution time; ``total_ms`` spans
    request receipt to envelope write.  All monotonic-clock based.
    """

    __slots__ = ("_t0", "_t_run", "_run_s")

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self._t_run = None
        self._run_s = 0.0

    def running(self) -> None:
        """Mark the dispatch point: queueing ends here."""
        if self._t_run is None:
            self._t_run = time.monotonic()

    def add_run(self, seconds: float) -> None:
        """Accumulate worker-measured execution time."""
        self._run_s += max(0.0, seconds)

    def envelope(self) -> Dict[str, float]:
        now = time.monotonic()
        queued_end = self._t_run if self._t_run is not None else now
        return {
            "queued_ms": round((queued_end - self._t0) * 1000, 3),
            "run_ms": round(self._run_s * 1000, 3),
            "total_ms": round((now - self._t0) * 1000, 3),
        }


class ServiceStats:
    """Thread-safe lifetime counters for one daemon instance."""

    _FIELDS = (
        "requests",
        "ok",
        "errors",
        "cache_hits",
        "cache_misses",
        "coalesced",
        "dispatches",
        "crash_retries",
        "crash_failures",
        "rejected_overload",
        "rejected_quota",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self._FIELDS}
        self._started = time.monotonic()

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] += by

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            out = dict(self._counts)
        out["uptime_s"] = round(time.monotonic() - self._started, 3)
        return out
