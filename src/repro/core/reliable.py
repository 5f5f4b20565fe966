"""Reliable exactly-once, in-order delivery over an unreliable mesh.

The PLUS coherence protocol assumes the fabric delivers every message
exactly once and in per-pair FIFO order.  When a
:class:`~repro.network.faults.FaultPlan` breaks that assumption, this
module restores it *underneath* the protocol: each coherence manager
owns one :class:`ReliableChannels` object that

* stamps every outgoing protocol message with a per-(src, dst) sequence
  number and keeps it on a retransmission queue until the destination
  acknowledges it (cumulative ``NET_ACK``),
* retransmits on an ack timeout with bounded exponential backoff
  (``TimingParams.ack_timeout_cycles`` doubling per silent round up to
  ``ack_backoff_max_cycles``), driven by the engine's cancellable
  timers,
* raises :class:`~repro.errors.NodeUnreachable` — with cycle, node and
  a wire-transcript excerpt — once a message has been retransmitted
  ``net_max_retries`` times without an ack, instead of hanging the run,
* and on the receive side reconstructs the exactly-once, in-order
  stream: duplicates (wire dups *and* retransmissions) are absorbed by
  the dedup window, out-of-order arrivals wait in a reorder buffer
  until the gap fills, and only then is each message handed to the
  protocol — so every protocol receive path (mid-chain copy-list
  updates, delayed-operation results, acks) stays naturally idempotent
  without per-handler guards.

"Exactly once" is therefore a per-layer statement: the *wire* may carry
a message several times (and NET_ACKs may repeat freely), but the
*application* — the coherence protocol — sees it exactly once.  The
protocol's own WRITE_ACK/RMW_RESP exactly-once property rides on top
unchanged, which is what the coherence oracle checks.

With no fault plan installed none of this exists: the coherence manager
bypasses the channels entirely and the wire itself is exact.

Crash epochs
------------

When the fault plan can take whole nodes down, every sequenced message
additionally carries a crash-epoch stamp: ``(sender_epoch << 16) |
believed_receiver_epoch``, and every NET_ACK carries ``(acker_epoch <<
16) | echo_of_sender_epoch``.  A node that crashes and restarts bumps
its epoch; the stamps let both sides detect the restart instead of
resurrecting pre-crash state:

* A receiver seeing a *higher* sender epoch resets that in-channel
  (the restarted sender restarts its sequence space at 0); a *lower*
  sender epoch is a stale incarnation's retransmission and is dropped
  silently.
* A receiver addressed with a *stale belief* of its own epoch (the
  sender has not yet learned of the restart) drops the message — never
  buffers it, so a pre-crash sequence number cannot be replayed into
  the new stream — but still acks, advertising its new epoch.
* A sender seeing a *higher* acker epoch (or a higher sender epoch on
  any inbound message) flushes its unacked queue for that peer — each
  flushed message is handed to the crash-tolerant coherence manager's
  ``CrashTolerantCM.on_reliable_flush`` so blocked originators are
  unstuck — and restarts the out-channel at sequence 0.

On a machine where no node ever crashes every epoch is 0, every stamp
packs to 0, and none of the comparisons fire: the wire format and
behaviour are bit-identical to the crash-free layer.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import NodeUnreachable
from repro.network.message import Message, MsgKind

# Enum members bound once at import: an ``Enum.MEMBER`` load costs
# ~10x a global on CPython 3.11 (DESIGN.md, "Hot-path rules").
_NET_ACK = MsgKind.NET_ACK


class _Pending:
    """One unacknowledged outgoing message."""

    __slots__ = ("seq", "msg", "retries", "sent_at")

    def __init__(self, seq: int, msg: Message, sent_at: int) -> None:
        self.seq = seq
        self.msg = msg
        self.retries = 0
        self.sent_at = sent_at


class _OutChannel:
    """Sender half of one (src, dst) reliable connection."""

    __slots__ = ("dst", "next_seq", "unacked", "timer", "attempts", "peer_epoch")

    def __init__(self, dst: int) -> None:
        self.dst = dst
        self.next_seq = 0
        self.unacked: Deque[_Pending] = deque()
        self.timer = None
        #: Consecutive timeout rounds with no ack progress (backoff level).
        self.attempts = 0
        #: Last known crash epoch of the destination.
        self.peer_epoch = 0


class _InChannel:
    """Receiver half: dedup window + reorder buffer for one source.

    ``expected`` is the cursor of the in-order stream; everything below
    it has been delivered exactly once.  Arrivals above it wait in
    ``buffer`` until the gap fills (the wire's reordering is bounded by
    the fault plan's jitter, so the buffer stays small).
    """

    __slots__ = ("src", "expected", "buffer", "duplicates", "epoch")

    def __init__(self, src: int) -> None:
        self.src = src
        self.expected = 0
        self.buffer: Dict[int, Message] = {}
        self.duplicates = 0
        #: Crash epoch of the sender incarnation this stream belongs to.
        self.epoch = 0

    def offer(self, msg: Message) -> Optional[List[Message]]:
        """Accept one wire arrival.

        Returns the (possibly empty) list of messages that just became
        deliverable in order, or None when the arrival was a duplicate
        the dedup window absorbed.
        """
        seq = msg.seq
        if seq < self.expected or seq in self.buffer:
            self.duplicates += 1
            return None
        self.buffer[seq] = msg
        ready: List[Message] = []
        while self.expected in self.buffer:
            ready.append(self.buffer.pop(self.expected))
            self.expected += 1
        return ready


class ReliableChannels:
    """All reliable connections of one coherence manager."""

    def __init__(self, cm) -> None:
        self.cm = cm
        self.engine = cm.engine
        self.fabric = cm.fabric
        self.node_id = cm.node_id
        params = cm.params
        self.base_timeout = params.ack_timeout_cycles
        self.max_timeout = params.ack_backoff_max_cycles
        self.max_retries = params.net_max_retries
        self._out: Dict[int, _OutChannel] = {}
        self._in: Dict[int, _InChannel] = {}
        #: This node's crash epoch (incarnation number).  Survives the
        #: volatile-state clear of a crash — conceptually it lives in the
        #: node's boot ROM — and is bumped by each restart.
        self.epoch = 0
        #: Wire arrivals dropped for belonging to a dead incarnation.
        self.stale_epoch_drops = 0
        #: Unacked messages flushed because the peer restarted.
        self.flushed_on_restart = 0

    # ------------------------------------------------------------------
    # Sender side.
    # ------------------------------------------------------------------
    def _timeout(self, ch: _OutChannel) -> int:
        return min(self.base_timeout << ch.attempts, self.max_timeout)

    def send(self, msg: Message) -> None:
        """Stamp ``msg`` with the next sequence number and transmit it,
        keeping it queued until the destination acknowledges."""
        dst = msg.dst
        ch = self._out.get(dst)
        if ch is None:
            ch = self._out[dst] = _OutChannel(dst)
        seq = ch.next_seq
        msg.seq = seq
        msg.epoch = (self.epoch << 16) | ch.peer_epoch
        ch.next_seq = seq + 1
        engine = self.engine
        ch.unacked.append(_Pending(seq, msg, engine._now))
        self.fabric.send(msg)
        if ch.timer is None:
            ch.timer = engine.timer(
                self._timeout(ch), lambda: self._on_timeout(ch)
            )

    def _on_timeout(self, ch: _OutChannel) -> None:
        ch.timer = None
        if not ch.unacked:
            return
        now = self.engine.now
        timeout = self._timeout(ch)
        due = ch.unacked[0].sent_at + timeout
        if now < due:
            # Acks advanced the queue since the timer was armed; nothing
            # has been waiting a full timeout yet.  Re-check at ``due``.
            ch.timer = self.engine.timer(due - now, lambda: self._on_timeout(ch))
            return
        stats = self.fabric.stats
        for pending in ch.unacked:
            pending.retries += 1
            if pending.retries > self.max_retries:
                raise NodeUnreachable(
                    f"node {self.node_id} -> {ch.dst}: "
                    f"{pending.msg.kind.value} seq={pending.seq} unacked "
                    f"after {self.max_retries} retransmissions "
                    f"({len(ch.unacked)} message(s) outstanding)",
                    cycle=now,
                    node=ch.dst,
                    msg=pending.msg,
                    excerpt=self._excerpt(),
                )
            stats.retransmits += 1
            pending.sent_at = now
            self.fabric.send(pending.msg)
        ch.attempts += 1
        ch.timer = self.engine.timer(
            self._timeout(ch), lambda: self._on_timeout(ch)
        )

    def _excerpt(self) -> Tuple[str, ...]:
        trace = self.fabric._trace
        return tuple(trace.tail()) if trace is not None else ()

    def _note_peer_epoch(self, dst: int, peer_epoch: int) -> None:
        """React to evidence that ``dst`` is now at ``peer_epoch``.

        A higher epoch means the peer crashed and restarted: everything
        queued for the dead incarnation goes to ``CrashTolerantCM``'s
        ``on_reliable_flush`` (and ``on_peer_restart`` re-drives what it
        acked) and the out-channel re-handshakes from sequence 0.
        """
        ch = self._out.get(dst)
        if ch is None:
            # No traffic that way yet: still record the epoch, so the
            # first message we *do* send is stamped against the live
            # incarnation (not epoch 0, which it would silently drop).
            if peer_epoch > 0:
                ch = self._out[dst] = _OutChannel(dst)
                ch.peer_epoch = peer_epoch
            return
        if peer_epoch <= ch.peer_epoch:
            return
        ch.peer_epoch = peer_epoch
        ch.next_seq = 0
        ch.attempts = 0
        if ch.timer is not None:
            ch.timer.cancel()
            ch.timer = None
        if ch.unacked:
            flushed, ch.unacked = ch.unacked, deque()
            self.flushed_on_restart += len(flushed)
            on_flush = self.cm.on_reliable_flush
            for pending in flushed:
                on_flush(pending.msg)
        # Complementary hole: requests the dead incarnation *did* ack at
        # the wire but crashed before acting on.  Nothing is left
        # unacked for those, yet their responses will never come — the
        # crash-tolerant CM re-drives them against the live incarnation.
        self.cm.on_peer_restart(dst)

    def on_net_ack(self, msg: Message) -> None:
        """Cumulative acknowledgement from ``msg.src``: everything up to
        and including sequence number ``msg.value`` arrived."""
        if msg.epoch & 0xFFFF != self.epoch:
            # An ack addressed to a previous incarnation of this node.
            return
        self._note_peer_epoch(msg.src, msg.epoch >> 16)
        ch = self._out.get(msg.src)
        if ch is None:
            return
        cum = msg.value
        unacked = ch.unacked
        stats = self.fabric.stats
        progressed = False
        while unacked and unacked[0].seq <= cum:
            pending = unacked.popleft()
            progressed = True
            if pending.retries:
                stats.recovered += 1
        if progressed:
            ch.attempts = 0
        if not unacked and ch.timer is not None:
            ch.timer.cancel()
            ch.timer = None

    # ------------------------------------------------------------------
    # Receiver side.
    # ------------------------------------------------------------------
    def on_wire(self, msg: Message) -> None:
        """Entry point for every sequenced message the fabric delivers.

        Accepted messages are reported to the trace (for the oracle's
        exactly-once-application view) and dispatched to the protocol in
        sequence order; duplicates are dropped here.  Every arrival is
        (re-)acknowledged — re-acking a duplicate is what heals a lost
        NET_ACK.
        """
        src = msg.src
        ch = self._in.get(src)
        if ch is None:
            ch = self._in[src] = _InChannel(src)
        sender_epoch = msg.epoch >> 16
        if sender_epoch != ch.epoch or msg.epoch & 0xFFFF != self.epoch:
            # Crash-epoch slow path (never taken on a machine where no
            # node has crashed: every stamp is 0 there).
            if sender_epoch < ch.epoch:
                # A dead incarnation's retransmission; not even worth an
                # ack — the sender no longer exists.
                self.stale_epoch_drops += 1
                return
            if sender_epoch > ch.epoch:
                # The sender restarted: its sequence space begins again
                # at 0.  Anything buffered belongs to the dead stream.
                ch.epoch = sender_epoch
                ch.expected = 0
                ch.buffer.clear()
                self._note_peer_epoch(src, sender_epoch)
            if msg.epoch & 0xFFFF != self.epoch:
                # The sender has not yet learned that *we* restarted;
                # its sequence numbers are meaningless against our fresh
                # stream.  Drop (never buffer — a pre-crash seq must not
                # leak into the new stream) but ack below so the sender
                # sees our new epoch and flushes.
                self.stale_epoch_drops += 1
                ready = None
            else:
                ready = ch.offer(msg)
        else:
            ready = ch.offer(msg)
        fabric = self.fabric
        if ready:
            dispatch = self.cm.dispatch
            for accepted in ready:
                fabric.note_applied(accepted)
                dispatch(accepted)
        fabric.send(
            Message(
                kind=_NET_ACK,
                src=self.node_id,
                dst=src,
                value=ch.expected - 1,
                epoch=(self.epoch << 16) | sender_epoch,
            )
        )

    # ------------------------------------------------------------------
    # Crash / restart (driven by the machine's crash driver).
    # ------------------------------------------------------------------
    def on_peer_crash(self, peer: int) -> None:
        """The machine observed ``peer`` die (fiat fault model, like the
        copy-list repair).  Out-of-order arrivals buffered from its
        current incarnation can never complete — the gap below them died
        with the sender's retransmit window — so they are dropped now
        rather than left to fake in-flight state forever."""
        ch = self._in.get(peer)
        if ch is not None and ch.buffer:
            self.stale_epoch_drops += len(ch.buffer)
            ch.buffer.clear()

    def on_crash(self) -> None:
        """Discard all volatile channel state: retransmit queues, their
        timers, and every receive window.  The epoch survives."""
        for ch in self._out.values():
            if ch.timer is not None:
                ch.timer.cancel()
        self._out.clear()
        self._in.clear()

    def on_restart(self) -> None:
        """Come back as a new incarnation; peers will re-handshake."""
        self.epoch += 1

    # ------------------------------------------------------------------
    # Diagnostics.
    # ------------------------------------------------------------------
    def idle(self) -> bool:
        """True when nothing is awaiting acknowledgement or reordering."""
        return all(not ch.unacked for ch in self._out.values()) and all(
            not ch.buffer for ch in self._in.values()
        )

    @property
    def duplicates_absorbed(self) -> int:
        """Wire arrivals the dedup windows dropped (dups + retransmits)."""
        return sum(ch.duplicates for ch in self._in.values())

    def describe(self) -> List[str]:
        """Stuck-state report for the machine watchdog."""
        lines = []
        if self.epoch or self.stale_epoch_drops or self.flushed_on_restart:
            lines.append(
                f"node {self.node_id}: epoch {self.epoch}, "
                f"{self.stale_epoch_drops} stale-epoch drops, "
                f"{self.flushed_on_restart} flushed on peer restart"
            )
        for dst, ch in sorted(self._out.items()):
            if ch.unacked:
                head = ch.unacked[0]
                lines.append(
                    f"node {self.node_id} -> {dst}: {len(ch.unacked)} "
                    f"unacked (head seq={head.seq} "
                    f"{head.msg.kind.value}, {head.retries} retries)"
                )
        for src, ch in sorted(self._in.items()):
            if ch.buffer:
                lines.append(
                    f"node {self.node_id} <- {src}: waiting for seq "
                    f"{ch.expected}, {len(ch.buffer)} buffered"
                )
        return lines
