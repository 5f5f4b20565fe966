"""Per-node and machine-wide instrumentation counters.

These counters mirror what the paper's simulator instrumented: local vs
remote reads and writes, update traffic, delayed-operation mix, processor
busy/idle time.  Table 2-1 and both evaluation figures are computed from
them.

Classification (documented in DESIGN.md, "Table 2-1 metrics"):

* a read is **local** when satisfied from the node's own memory (or
  processor cache) with no network traffic, **remote** otherwise;
* a write is **local** when it completes entirely on the issuing node
  (local master, no further copies), **remote** when any network message
  is needed (write request towards a remote master and/or copy-list
  updates);
* delayed operations are counted separately and classified the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.params import OpCode


@dataclass(slots=True)
class NodeCounters:
    """Event counts for one node."""

    node_id: int = -1

    # -- processor-visible memory operations ------------------------------
    local_reads: int = 0
    remote_reads: int = 0
    local_writes: int = 0
    remote_writes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    # -- delayed operations ------------------------------------------------
    #: Delayed operations issued, indexed by ``OpCode.idx``: a dense list,
    #: because hashing an enum member is a Python-level call.
    rmw_counts: List[int] = field(default_factory=lambda: [0] * len(OpCode))
    rmw_local: int = 0
    rmw_remote: int = 0
    fences: int = 0

    # -- coherence-manager activity -----------------------------------------
    updates_applied: int = 0     # update messages applied to local memory
    invalidations_applied: int = 0  # invalidate messages applied locally
    stale_refetches: int = 0     # refetch responses outrun by an invalidate
    masters_written: int = 0     # writes/RMWs applied at a local master
    writes_forwarded: int = 0    # write requests forwarded towards a master

    # -- processor time accounting -------------------------------------------
    busy_cycles: int = 0
    compute_cycles: int = 0
    spin_cycles: int = 0   # busy but not useful (backoff/poll loops)
    idle_cycles: int = 0

    @property
    def useful_cycles(self) -> int:
        """Busy time minus spin loops (the paper's "useful" time)."""
        return self.busy_cycles - self.spin_cycles
    read_stall_cycles: int = 0
    write_stall_cycles: int = 0
    sync_stall_cycles: int = 0
    fence_stall_cycles: int = 0
    context_switches: int = 0
    threads_finished: int = 0

    # ------------------------------------------------------------------
    def count_rmw(self, op: OpCode) -> None:
        self.rmw_counts[op.idx] += 1

    @property
    def rmw_issued(self) -> Dict[OpCode, int]:
        """Delayed operations issued per opcode (a fresh dict; issued
        opcodes only)."""
        return {op: n for op, n in zip(OpCode, self.rmw_counts) if n}

    @property
    def total_reads(self) -> int:
        return self.local_reads + self.remote_reads

    @property
    def total_writes(self) -> int:
        return self.local_writes + self.remote_writes

    @property
    def total_rmw(self) -> int:
        return self.rmw_local + self.rmw_remote


@dataclass(slots=True)
class MachineCounters:
    """Aggregation of every node's counters plus machine-wide ratios."""

    nodes: List[NodeCounters] = field(default_factory=list)

    def _sum(self, attr: str) -> int:
        return sum(getattr(n, attr) for n in self.nodes)

    @property
    def local_reads(self) -> int:
        return self._sum("local_reads")

    @property
    def remote_reads(self) -> int:
        return self._sum("remote_reads")

    @property
    def local_writes(self) -> int:
        return self._sum("local_writes")

    @property
    def remote_writes(self) -> int:
        return self._sum("remote_writes")

    @property
    def rmw_local(self) -> int:
        return self._sum("rmw_local")

    @property
    def rmw_remote(self) -> int:
        return self._sum("rmw_remote")

    @property
    def busy_cycles(self) -> int:
        return self._sum("busy_cycles")

    @property
    def spin_cycles(self) -> int:
        return self._sum("spin_cycles")

    @property
    def useful_cycles(self) -> int:
        return sum(n.useful_cycles for n in self.nodes)

    @property
    def idle_cycles(self) -> int:
        return self._sum("idle_cycles")

    @property
    def context_switches(self) -> int:
        return self._sum("context_switches")

    def rmw_mix(self) -> Dict[OpCode, int]:
        """Machine-wide delayed-operation counts by opcode."""
        mix: Dict[OpCode, int] = {}
        for node in self.nodes:
            for op, n in node.rmw_issued.items():
                mix[op] = mix.get(op, 0) + n
        return mix

    # -- the ratios Table 2-1 reports ----------------------------------------
    @staticmethod
    def _ratio(a: float, b: float) -> float:
        return a / b if b else float("inf")

    def reads_local_over_remote(self) -> float:
        """"Reads Local/Remote" column of Table 2-1."""
        return self._ratio(self.local_reads, self.remote_reads)

    def writes_local_over_remote(self) -> float:
        """"Writes Local/Remote" column (writes + delayed operations)."""
        return self._ratio(
            self.local_writes + self.rmw_local,
            self.remote_writes + self.rmw_remote,
        )
