"""The delayed-operations cache of one coherence manager.

A delayed operation returns an identifier — in the hardware, the address
of a location in this cache — that the program later uses to retrieve the
result (Section 3.1).  The location is allocated when the operation is
issued and deallocated when the result is read.  Reading an unavailable
result blocks; the status can also be inspected for non-blocking polls.
The current implementation allows 8 delayed operations in progress per
node.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, List, NamedTuple, Optional

from repro.core.params import OpCode
from repro.errors import ProtocolError, ThreadError
from repro.sim.process import WaitQueue

Callback = Callable[[], None]


class Token(NamedTuple):
    """Identifier of an in-flight delayed operation.

    ``slot`` is the cache location; ``gen`` guards against a stale token
    being replayed after its slot has been recycled.
    """

    node: int
    slot: int
    gen: int


class SlotState(Enum):
    """Lifecycle of one delayed-operations cache slot."""

    FREE = "free"
    WAITING = "waiting"
    READY = "ready"


# Enum members bound once at import: an ``Enum.MEMBER`` load costs
# ~10x a global on CPython 3.11 (DESIGN.md, "Hot-path rules").
_FREE = SlotState.FREE
_WAITING = SlotState.WAITING
_READY = SlotState.READY


class _Slot:
    __slots__ = ("index", "gen", "state", "op", "result", "waiter")

    def __init__(self, index: int) -> None:
        self.index = index
        self.gen = 0
        self.state = _FREE
        self.op: Optional[OpCode] = None
        self.result = 0
        self.waiter: Optional[Callback] = None


class DelayedOpsCache:
    """Fixed-size pool of result slots for in-flight delayed operations."""

    def __init__(self, node_id: int, n_slots: int) -> None:
        self.node_id = node_id
        self._slots: List[_Slot] = [_Slot(i) for i in range(n_slots)]
        self._free: List[int] = list(range(n_slots - 1, -1, -1))
        self._slot_waiters = WaitQueue("delayed-slot")
        #: Lifetime counters for instrumentation.
        self.total_issued = 0
        self.peak_in_flight = 0
        self.slot_stalls = 0

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._slots) - len(self._free)

    @property
    def has_free_slot(self) -> bool:
        return bool(self._free)

    def when_slot_free(self, fn: Callback) -> None:
        """Run ``fn`` once a slot can be allocated (immediately if one can)."""
        if self._free:
            fn()
            return
        self.slot_stalls += 1
        self._slot_waiters.park(fn)

    # ------------------------------------------------------------------
    def allocate(self, op: OpCode) -> Token:
        """Claim a slot for a newly-issued operation."""
        if not self._free:
            raise ProtocolError(
                "delayed-operations cache overflow", node=self.node_id
            )
        slot = self._slots[self._free.pop()]
        slot.gen += 1
        slot.state = _WAITING
        slot.op = op
        slot.result = 0
        slot.waiter = None
        self.total_issued += 1
        in_flight = len(self._slots) - len(self._free)
        if in_flight > self.peak_in_flight:
            self.peak_in_flight = in_flight
        return Token(self.node_id, slot.index, slot.gen)

    def _slot_for(self, token: Token) -> _Slot:
        if token.node != self.node_id:
            raise ThreadError(
                f"token {token} belongs to node {token.node}, "
                f"not node {self.node_id}"
            )
        slot = self._slots[token.slot]
        if slot.gen != token.gen or slot.state is _FREE:
            raise ThreadError(f"stale delayed-operation token {token}")
        return slot

    # ------------------------------------------------------------------
    def fill(self, token: Token, value: int) -> None:
        """Deposit the result returned by the master copy.

        A duplicate result stays a hard error even on an unreliable
        mesh: the reliable-delivery sublayer deduplicates retransmitted
        RMW_RESP messages before dispatch, so a second fill can only
        mean a protocol bug (two responses with distinct identities).
        """
        slot = self._slot_for(token)
        if slot.state is _READY:
            raise ProtocolError(
                f"duplicate result for {token}", node=self.node_id
            )
        slot.state = _READY
        slot.result = value
        if slot.waiter is not None:
            waiter, slot.waiter = slot.waiter, None
            waiter()

    def poll(self, token: Token) -> Optional[int]:
        """The result if available (slot stays allocated), else None."""
        slot = self._slot_for(token)
        if slot.state is _READY:
            return slot.result
        return None

    def is_ready(self, token: Token) -> bool:
        return self._slot_for(token).state is _READY

    def take(self, token: Token) -> int:
        """Consume a READY result, freeing the slot."""
        slot = self._slot_for(token)
        if slot.state is not _READY:
            raise ProtocolError(
                f"take() on unready slot for {token}", node=self.node_id
            )
        value = slot.result
        slot.state = _FREE
        slot.op = None
        self._free.append(slot.index)
        self._slot_waiters.wake_one()
        return value

    def when_ready(self, token: Token, fn: Callback) -> None:
        """Run ``fn`` once the result for ``token`` is available."""
        slot = self._slot_for(token)
        if slot.state is _READY:
            fn()
            return
        if slot.waiter is not None:
            raise ThreadError(
                f"two waiters for the same delayed operation {token}"
            )
        slot.waiter = fn
