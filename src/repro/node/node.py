"""One PLUS node: processor + cache + local memory + coherence manager.

Figure 2-1 of the paper: the node couples an off-the-shelf processor
(with its cache) to local memory and a coherence manager that links the
node to the mesh.  The local memory serves both as main memory and as a
cache for pages homed on other nodes (replication); the processor cache
holds only local memory and is kept coherent with coherence-manager
writes by bus snooping.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.coherence import CoherenceManager
from repro.memory.address import PhysAddr
from repro.memory.mapping import PageTable
from repro.memory.physical import LocalMemory
from repro.node.cache import DirectMappedCache
from repro.node.cpu import CPU
from repro.stats.counters import NodeCounters


class Node:
    """A complete PLUS node wired into a machine."""

    def __init__(self, node_id: int, machine) -> None:
        self.node_id = node_id
        self.machine = machine
        self.engine = machine.engine
        self.params = machine.params

        self.counters = NodeCounters(node_id=node_id)
        self.memory = LocalMemory(node_id, self.params.page_words)
        self.cm = CoherenceManager(
            node_id,
            self.engine,
            machine.fabric,
            self.memory,
            self.params,
            self.counters,
        )
        self.cache = DirectMappedCache(self.params, machine.snoop_policy)
        self.cm.snoop = self.cache.snoop
        self.page_table = PageTable(node_id, self.params, machine.os.resolve)
        self.cm.shootdown_hook = self.page_table.invalidate
        self.cpu = CPU(self)

    # ------------------------------------------------------------------
    def translate(self, vaddr: int) -> Tuple[PhysAddr, int]:
        """MMU translation; returns (physical address, cycles charged)."""
        profiler = self.machine.profiler
        if profiler is not None:
            profiler.note(self.node_id, vaddr // self.params.page_words)
        return self.page_table.translate(vaddr)

    def note_remote_ref(self, vaddr: int) -> None:
        """Bump the hardware per-page remote-reference counter."""
        competitive = self.machine.competitive
        if competitive is not None:
            competitive.note_remote_ref(
                self.node_id, vaddr // self.params.page_words
            )

    # ------------------------------------------------------------------
    def finalize_counters(self, elapsed: int) -> None:
        """Fold cache statistics and idle time into the counters."""
        self.counters.cache_hits = self.cache.hits
        self.counters.cache_misses = self.cache.misses
        self.counters.idle_cycles = max(0, elapsed - self.counters.busy_cycles)
