"""The pending-writes cache of one coherence manager.

Writes do not block the issuing processor; the coherence manager instead
remembers the address of every incomplete write here (Section 2.3).  The
cache has a hard capacity (8 in the current implementation): a processor
trying to write with the cache full stalls until an entry frees.  Reads
of an address with a pending write stall until the write completes, which
gives strong ordering within a single processor.  A fence stalls until
the cache is completely empty.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Dict

from repro.errors import ProtocolError
from repro.memory.address import PhysAddr
from repro.sim.process import WaitQueue

Callback = Callable[[], None]


class PendingWrites:
    """Bounded table of in-flight write transactions, keyed by xid."""

    def __init__(self, capacity: int, xids=None) -> None:
        self.capacity = capacity
        # ``xids`` lets a crash-replacement instance continue its
        # predecessor's counter, so a transaction id never aliases a
        # pre-crash write that a late in-flight ack might still name.
        self._xids = count() if xids is None else xids
        self._addr_of: Dict[int, PhysAddr] = {}
        self._count_at: Dict[PhysAddr, int] = {}
        self._room_waiters = WaitQueue("pending-room")
        self._addr_waiters: Dict[PhysAddr, WaitQueue] = {}
        self._empty_waiters = WaitQueue("pending-empty")
        #: Lifetime counters for instrumentation.
        self.peak_occupancy = 0
        self.total_writes = 0
        self.stall_events = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._addr_of)

    @property
    def is_full(self) -> bool:
        return len(self._addr_of) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._addr_of

    def pending_at(self, addr: PhysAddr) -> bool:
        """True when a write to ``addr`` is still propagating."""
        return self._count_at.get(addr, 0) > 0

    def knows(self, xid: int) -> bool:
        """True when ``xid`` names a live in-flight write."""
        return xid in self._addr_of

    # ------------------------------------------------------------------
    def add(self, addr: PhysAddr) -> int:
        """Record a new in-flight write; returns its transaction id.

        Callers must check :attr:`is_full` first (and park on
        :meth:`when_room`); adding to a full cache is a protocol bug.
        """
        if self.is_full:
            raise ProtocolError("pending-writes cache overflow")
        xid = next(self._xids)
        self._addr_of[xid] = addr
        self._count_at[addr] = self._count_at.get(addr, 0) + 1
        self.total_writes += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._addr_of))
        return xid

    def complete(self, xid: int) -> None:
        """Retire transaction ``xid`` and wake anything it was blocking."""
        addr = self._addr_of.pop(xid, None)
        if addr is None:
            raise ProtocolError(f"completion for unknown write xid {xid}")
        remaining = self._count_at[addr] - 1
        if remaining:
            self._count_at[addr] = remaining
        else:
            del self._count_at[addr]
            waiters = self._addr_waiters.pop(addr, None)
            if waiters:
                waiters.wake_all()
        self._room_waiters.wake_one()
        if self.is_empty:
            self._empty_waiters.wake_all()

    # ------------------------------------------------------------------
    def when_room(self, fn: Callback) -> None:
        """Run ``fn`` once an entry frees (immediately if not full)."""
        if not self.is_full:
            fn()
            return
        self.stall_events += 1
        self._room_waiters.park(fn)

    def when_clear(self, addr: PhysAddr, fn: Callback) -> None:
        """Run ``fn`` once no write to ``addr`` is pending."""
        if not self.pending_at(addr):
            fn()
            return
        waiters = self._addr_waiters.get(addr)
        if waiters is None:
            waiters = self._addr_waiters[addr] = WaitQueue(f"pending@{addr}")
        waiters.park(fn)

    def when_empty(self, fn: Callback) -> None:
        """Run ``fn`` once the cache is empty (fence support)."""
        if self.is_empty:
            fn()
            return
        self._empty_waiters.park(fn)
