"""Per-node virtual memory mapping: page tables and TLB (Section 2.4).

All nodes share one virtual address space (PLUS runs a single
multithreaded process), but each node maintains its own page table
holding only the mappings it actively uses.  A node maps each virtual
page to the most convenient physical copy — the closest one.  If a node
touches a page missing from its local table, the (simulated) exception
handler consults the centralized table, checks the mapping is legal, and
fills the local table lazily.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.core.params import TimingParams
from repro.errors import MappingError
from repro.memory.address import PhysAddr, PhysPage

#: Resolves (node_id, vpage) to the closest physical copy, or raises
#: :class:`MappingError`.  Implemented by the replication manager.
CentralResolver = Callable[[int, int], PhysPage]

#: Builds a :class:`PhysAddr` from a ready 3-tuple at C speed, skipping
#: the Python-level ``NamedTuple.__new__`` on the per-request path.
_new_addr = tuple.__new__


class TLB:
    """A small fully-associative LRU translation cache."""

    def __init__(self, entries: int) -> None:
        self.capacity = entries
        self._map: "OrderedDict[int, PhysPage]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, vpage: int) -> Optional[PhysPage]:
        phys = self._map.get(vpage)
        if phys is None:
            self.misses += 1
            return None
        self._map.move_to_end(vpage)
        self.hits += 1
        return phys

    def insert(self, vpage: int, phys: PhysPage) -> None:
        self._map[vpage] = phys
        self._map.move_to_end(vpage)
        while len(self._map) > self.capacity:
            self._map.popitem(last=False)

    def flush(self, vpage: int) -> None:
        self._map.pop(vpage, None)

    def flush_all(self) -> None:
        self._map.clear()


class PageTable:
    """One node's lazily-filled page table plus its TLB."""

    def __init__(
        self, node_id: int, params: TimingParams, central: CentralResolver
    ) -> None:
        self.node_id = node_id
        self.params = params
        self.central = central
        self.tlb = TLB(params.tlb_entries)
        self._entries: Dict[int, PhysPage] = {}
        self.faults = 0
        # Hoisted for translate(), which runs once per memory request.
        self._page_words = params.page_words

    # ------------------------------------------------------------------
    def translate_page(self, vpage: int) -> Tuple[PhysPage, int]:
        """Map ``vpage``; returns (physical page, translation cycles).

        Costs: 0 on a TLB hit, a hardware table walk on a TLB miss served
        by the local table, and the software exception-handler cost on a
        local-table miss filled from the central table.
        """
        phys = self.tlb.lookup(vpage)
        if phys is not None:
            return phys, 0
        phys = self._entries.get(vpage)
        if phys is not None:
            self.tlb.insert(vpage, phys)
            return phys, self.params.page_table_walk_cycles
        self.faults += 1
        phys = self.central(self.node_id, vpage)
        self._entries[vpage] = phys
        self.tlb.insert(vpage, phys)
        return phys, self.params.tlb_miss_cycles

    def translate(self, vaddr: int) -> Tuple[PhysAddr, int]:
        """Map a virtual word address; returns (PhysAddr, cycles)."""
        if vaddr < 0:
            raise MappingError(f"negative virtual address {vaddr}")
        vpage, offset = divmod(vaddr, self._page_words)
        # TLB hit inlined: this is the overwhelmingly common case and
        # sits on every read/write/issue path; semantics (LRU touch, hit
        # counter, zero cycles) are identical to ``TLB.lookup``.
        tlb = self.tlb
        phys = tlb._map.get(vpage)
        if phys is not None:
            tlb._map.move_to_end(vpage)
            tlb.hits += 1
            return _new_addr(PhysAddr, (phys.node, phys.page, offset)), 0
        tlb.misses += 1
        phys = self._entries.get(vpage)
        if phys is not None:
            cycles = self.params.page_table_walk_cycles
        else:
            self.faults += 1
            phys = self.central(self.node_id, vpage)
            self._entries[vpage] = phys
            cycles = self.params.tlb_miss_cycles
        tlb.insert(vpage, phys)
        return _new_addr(PhysAddr, (phys.node, phys.page, offset)), cycles

    # ------------------------------------------------------------------
    def install(self, vpage: int, phys: PhysPage) -> None:
        """Eagerly install a mapping (OS action, e.g. after replication)."""
        self._entries[vpage] = phys
        self.tlb.insert(vpage, phys)

    def invalidate(self, vpage: int) -> None:
        """Drop a mapping and flush its TLB entry (copy deletion)."""
        self._entries.pop(vpage, None)
        self.tlb.flush(vpage)

    def mapping_of(self, vpage: int) -> Optional[PhysPage]:
        """Current local mapping without side effects (diagnostics)."""
        return self._entries.get(vpage)
