"""Per-layer attribution for the traced benchmark run.

Two instruments, both owned by the benchmark (nothing under ``src/`` is
touched):

* :class:`Spans` records one span per op with child spans ``build``,
  ``run`` and ``verify`` around the calls the benchmark makes into the
  simulator.  Spans stay in memory and are written once, at exit.
* :class:`LayerProfile` wraps ``cProfile`` around each op and folds
  ``tottime`` by ``src/repro`` package (the layers), plus ``stdlib`` and
  ``other`` (the benchmark itself), and reads the cumulative time and
  call count of a few named layer boundaries.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sysconfig
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: Layers whose ``<layer>.self_s`` every workload exercises (serve through
#: its in-process recomputation of served payloads).  The rest report a
#: share only, so no time reads a constant 0 on a workload that skips them.
TIMED_LAYERS = ("sim", "network", "core", "node", "memory", "runtime", "machine")
SHARE_LAYERS = TIMED_LAYERS + ("apps", "check", "stats", "stdlib", "other")

#: Named layer boundaries: (file under src/repro, function) -> name.
BOUNDARIES = {
    ("sim/engine.py", "run"): "Engine.run",
    ("network/fabric.py", "send"): "Fabric.send",
    ("core/coherence.py", "dispatch"): "CoherenceManager.dispatch",
    ("machine.py", "__init__"): "PlusMachine.__init__",
    ("check/oracle.py", "check"): "CoherenceOracle.check",
}

_STDLIB = (sysconfig.get_paths()["stdlib"], sysconfig.get_paths()["platstdlib"])


def layer_of(filename: str) -> str:
    """The layer a profiled function belongs to, from its file name."""
    if filename.startswith("~") or filename.startswith("<"):
        return "stdlib"  # C builtins and frozen modules
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0:
        rest = path[at + len(marker):]
        head, _, tail = rest.partition("/")
        if tail:
            return head if head in SHARE_LAYERS else "other"
        return "machine" if head == "machine.py" else "other"
    if path.startswith(_STDLIB):
        return "stdlib"
    return "other"


class Spans:
    """In-memory span log: ``op`` spans with ``build``/``run``/``verify``
    children, each ``{name, start, end, parent, op}``."""

    def __init__(self) -> None:
        self.records: List[Dict] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, op: int, parent: Optional[int] = None) -> Iterator[int]:
        index = len(self.records)
        record = {"name": name, "start": time.perf_counter() - self._origin,
                  "end": None, "parent": parent, "op": op}
        self.records.append(record)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter() - self._origin

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.records}, indent=1) + "\n")


class LayerProfile:
    """One ``cProfile`` accumulated over every traced op."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self.cpu_s = 0.0  #: process CPU spent inside traced ops

    @contextmanager
    def traced(self) -> Iterator[None]:
        c0 = time.process_time()
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()
            self.cpu_s += time.process_time() - c0

    def boundaries(self) -> Dict[str, Tuple[float, int]]:
        """Cumulative seconds and calls of each boundary that was called."""
        out: Dict[str, Tuple[float, int]] = {}
        for (filename, _line, func), row in pstats.Stats(self._profile).stats.items():
            path = filename.replace("\\", "/")
            for (suffix, name), label in BOUNDARIES.items():
                if func == name and path.endswith("/repro/" + suffix):
                    cum, calls = out.get(label, (0.0, 0))
                    out[label] = (cum + row[3], calls + row[1])
        return out

    def metrics(self) -> Dict[str, float]:
        """Per-layer self time and share, boundary times and counts, and
        ``trace_coverage``: profiled time over the traced ops' CPU."""
        self_s = {name: 0.0 for name in SHARE_LAYERS}
        for (filename, _line, _func), row in pstats.Stats(self._profile).stats.items():
            self_s[layer_of(filename)] += row[2]
        profiled = sum(self_s.values()) or 1.0
        out: Dict[str, float] = {}
        for name in SHARE_LAYERS:
            if name in TIMED_LAYERS:
                out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.share"] = self_s[name] / profiled
        bounds = self.boundaries()
        none = (0.0, 0)
        out["sim.run_s"] = bounds.get("Engine.run", none)[0]
        out["network.send_s"] = bounds.get("Fabric.send", none)[0]
        out["network.send_calls"] = bounds.get("Fabric.send", none)[1]
        out["core.dispatch_calls"] = bounds.get("CoherenceManager.dispatch", none)[1]
        out["machine.build_s"] = bounds.get("PlusMachine.__init__", none)[0]
        oracle_s, oracle_calls = bounds.get("CoherenceOracle.check", none)
        out["check.oracle_calls"] = oracle_calls
        out["check.oracle_share"] = oracle_s / profiled
        out["trace_coverage"] = profiled / self.cpu_s if self.cpu_s else 0.0
        return out
