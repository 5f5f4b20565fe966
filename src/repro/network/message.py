"""Message taxonomy for coherence-manager traffic.

Every network transaction of the PLUS protocol (Section 2.3 / 3.1) is one
of these message kinds:

* ``READ_REQ`` / ``READ_RESP`` — remote blocking read of one word.
* ``WRITE_REQ`` — a write travelling towards the master copy.  A node
  that receives one for a page whose master is elsewhere forwards it.
* ``UPDATE`` — a write propagating down the copy-list, master first.
* ``INVALIDATE`` — the ablation variant: instead of carrying the new
  data, mark the addressed words invalid at each copy (Section 2.2's
  write-invalidate comparison point).
* ``WRITE_ACK`` — sent by the last copy in the list to the originator,
  completing the write (frees a pending-writes entry).
* ``RMW_REQ`` / ``RMW_RESP`` — a delayed operation travelling to the
  master and its old-value result returning to the issuer.  Memory
  mutations made by the operation propagate as ordinary ``UPDATE``
  messages.
* ``PAGE_COPY_REQ`` / ``PAGE_COPY_DATA`` — the background page-copy
  hardware used during replication (Section 2.4).
* ``TLB_SHOOTDOWN`` / ``TLB_SHOOTDOWN_ACK`` — the OS interrupt that makes
  every node drop its mapping of a page copy being deleted (Section
  2.4: "all the nodes that have a copy of the page must update their
  address translation tables and flush their TLBs").
* ``NET_ACK`` — the reliable-delivery sublayer's cumulative
  acknowledgement (not part of the paper's protocol, which assumes a
  lossless mesh).  ``value`` carries the highest in-order sequence
  number received from the destination; it is itself unsequenced and
  unacknowledged (a lost NET_ACK just causes a retransmission, which
  the receiver's dedup window absorbs).

Sizes are bytes on the wire and drive the link-occupancy (contention)
model; they assume a small routing header plus the fields listed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from repro.core.params import OpCode
from repro.memory.address import PhysAddr


class MsgKind(Enum):
    """The message vocabulary of the coherence protocol (see above)."""

    READ_REQ = "read-req"
    READ_RESP = "read-resp"
    WRITE_REQ = "write-req"
    UPDATE = "update"
    INVALIDATE = "invalidate"
    WRITE_ACK = "write-ack"
    RMW_REQ = "rmw-req"
    RMW_RESP = "rmw-resp"
    PAGE_COPY_REQ = "page-copy-req"
    PAGE_COPY_DATA = "page-copy-data"
    TLB_SHOOTDOWN = "tlb-shootdown"
    TLB_SHOOTDOWN_ACK = "tlb-shootdown-ack"
    NET_ACK = "net-ack"


#: Wire size in bytes per message kind (header + payload fields).
MESSAGE_BYTES = {
    MsgKind.READ_REQ: 12,
    MsgKind.READ_RESP: 12,
    MsgKind.WRITE_REQ: 16,
    MsgKind.UPDATE: 16,
    MsgKind.INVALIDATE: 12,
    MsgKind.WRITE_ACK: 12,
    MsgKind.RMW_REQ: 20,
    MsgKind.RMW_RESP: 16,
    MsgKind.PAGE_COPY_REQ: 16,
    MsgKind.PAGE_COPY_DATA: 16,  # + 4 bytes per carried word, see size_bytes
    MsgKind.TLB_SHOOTDOWN: 12,
    MsgKind.TLB_SHOOTDOWN_ACK: 12,
    MsgKind.NET_ACK: 12,  # header + (src, dst, cumulative seq)
}

#: Wire size resolved through the enum member itself (no dict hashing on
#: the per-message path).
for _kind, _bytes in MESSAGE_BYTES.items():
    _kind.base_bytes = _bytes
del _kind, _bytes

#: Dense member index stamped onto each kind so hot paths can use plain
#: list indexing (``counts[kind.idx]``) instead of dict lookups — enum
#: hashing is a Python-level call and shows up in profiles.
for _i, _kind in enumerate(MsgKind):
    _kind.idx = _i
del _i, _kind

N_KINDS = len(MsgKind)

# Enum members bound once at import: an ``Enum.MEMBER`` load costs
# ~10x a global on CPython 3.11 (DESIGN.md, "Hot-path rules").
_UPDATE = MsgKind.UPDATE
_INVALIDATE = MsgKind.INVALIDATE
_PAGE_COPY_DATA = MsgKind.PAGE_COPY_DATA


@dataclass(slots=True)
class Message:
    """One coherence-manager-to-coherence-manager network message."""

    kind: MsgKind
    src: int
    dst: int
    addr: Optional[PhysAddr] = None
    value: int = 0
    op: Optional[OpCode] = None
    operand: int = 0
    #: Node that started the transaction (receives the ack / response).
    origin: int = -1
    #: Originator-local transaction id (pending-write entry or delayed slot).
    xid: int = -1
    #: Bulk payload for page-copy data messages.
    words: List[int] = field(default_factory=list)
    #: Word writes (page offset, value) carried by UPDATE messages.  A
    #: plain write carries one pair; a queue/dequeue operation carries
    #: two (the ring slot and the head/tail offset word).
    writes: List[tuple] = field(default_factory=list)
    #: On RMW_RESP: True when no copy-list updates were generated, so the
    #: operation is already complete (saves a separate ack message).
    chain_done: bool = False
    #: Per-(src, dst) sequence number stamped by the reliable-delivery
    #: sublayer when a FaultPlan is installed; -1 means unsequenced (the
    #: lossless-mesh fast path, and NET_ACK messages themselves).
    seq: int = -1
    #: Crash-epoch stamp packed as ``(sender_epoch << 16) | believed``
    #: where ``believed`` is the sender's view of the receiver's epoch
    #: (on NET_ACK: ``(acker_epoch << 16) | echo_of_sender_epoch``).
    #: Stays 0 for every message on a machine where no node has ever
    #: crashed, so crash-free runs pack identically to the pre-crash
    #: wire format.
    epoch: int = 0
    #: Machine-unique message identity, stamped by ``Fabric.send`` from
    #: the fabric's own counter on first injection (-1 until then); a
    #: retransmission reuses the object and therefore the id.  Ids are
    #: per-fabric, not process-global, so a run's transcript is
    #: byte-identical no matter how many simulations the process (or a
    #: warm sweep worker) ran before it.
    msg_id: int = -1

    @property
    def size_bytes(self) -> int:
        """Bytes this message occupies on each link it crosses."""
        kind = self.kind
        base = kind.base_bytes
        if kind is _PAGE_COPY_DATA:
            return base + 4 * len(self.words)
        if kind is _UPDATE and len(self.writes) > 1:
            return base + 8 * (len(self.writes) - 1)
        if kind is _INVALIDATE and len(self.writes) > 1:
            return base + 4 * (len(self.writes) - 1)
        return base

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        seq = f" seq={self.seq}" if self.seq >= 0 else ""
        return (
            f"{self.kind.value}#{self.msg_id} {self.src}->{self.dst} "
            f"addr={self.addr} val={self.value} origin={self.origin} "
            f"xid={self.xid}{seq}"
        )
