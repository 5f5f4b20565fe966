"""Crash tolerance for the coherence manager (DESIGN.md §12).

The paper's coherence manager (:mod:`repro.core.coherence`) assumes
nodes never fail.  :class:`CrashTolerantCM` survives crashes and
restarts: volatile state dies atomically, stray post-crash answers are
absorbed and counted, and requests follow the repaired copy-lists.
``PlusMachine._arm_crashes`` is the one place a CM becomes one, and
only a crash plan (or a direct ``crash_node``) calls it; every override
wraps the base method through ``super()``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.core.coherence import CoherenceManager
from repro.core.delayed import DelayedOpsCache
from repro.core.ops import OpOutcome
from repro.core.params import OpCode
from repro.core.pending import PendingWrites
from repro.errors import ProtocolError
from repro.memory.address import PhysAddr, PhysPage
from repro.network.message import Message, MsgKind
from repro.sim.process import WaitQueue

# Enum members bound once at import (DESIGN.md, "Hot-path rules").
_READ_REQ = MsgKind.READ_REQ
_READ_RESP = MsgKind.READ_RESP
_WRITE_REQ = MsgKind.WRITE_REQ
_UPDATE = MsgKind.UPDATE
_INVALIDATE = MsgKind.INVALIDATE
_WRITE_ACK = MsgKind.WRITE_ACK
_RMW_REQ = MsgKind.RMW_REQ
_RMW_RESP = MsgKind.RMW_RESP
_QUEUE = OpCode.QUEUE


def _rmw_failure(op: Optional[OpCode]) -> int:
    """The safe "try again" value for an RMW lost to a crash.

    Chosen per op so the conventional retry idiom fires: a queue insert
    sees FULL (top bit set in the old tail), a dequeue sees empty (top
    bit clear), a cond-xchng sees lock-held (top bit clear means no
    store happened), and plain reads/fetches see 0.
    """
    if op is _QUEUE:
        return 1 << 31
    return 0


class CrashTolerantCM(CoherenceManager):
    """A coherence manager that survives node crashes and restarts."""

    @classmethod
    def adopt(
        cls, cm: CoherenceManager, route: Callable[[int, int], object]
    ) -> None:
        """Make the built coherence manager ``cm`` crash tolerant in
        place (the node, its reliable layer and its hooks keep their
        reference); must run before traffic flows.  ``route(dead_node,
        dead_ppage)`` is the machine's record of the pre-repair
        copy-list of a page the dead node held, or None."""
        cm.__class__ = cls
        #: Bumped by each crash to void service work scheduled before it.
        cm._crash_gen = 0
        #: True while this node is crashed: the fabric keeps delivering
        #: in-flight messages, and a dead node must stay silent.
        cm.down = False
        cm.crash_route = route
        #: Messages handed back by the reliable layer after a peer died.
        cm.crash_flushes = 0
        #: Stray post-crash acks/responses absorbed instead of raised.
        cm.crash_strays = 0
        #: Acked-but-swallowed requests re-driven after a peer restart.
        cm.crash_redrives = 0
        #: Requests of ours still awaiting a protocol-level response,
        #: ``xid -> (kind, addr, op, value)``, recorded at issue.  The
        #: reliable layer retransmits a request the peer never
        #: wire-acked, but one acked *just* before the peer crashed
        #: leaves nothing to retransmit and no response will ever come;
        #: :meth:`on_peer_restart` re-drives these.
        cm._remote_reqs: Dict[int, Tuple] = {}
        # Bound methods taken at construction still name the base
        # class's functions: re-resolve them against the subclass.
        cm._handlers = [getattr(cm, h.__name__) for h in cm._handlers]
        if cm._reliable is not None:
            cm.fabric.rebind(cm.node_id, cm.receive)

    # ------------------------------------------------------------------
    # Crash, restart and repair (called by the machine).
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Atomically discard every piece of volatile CM state.

        The pending-writes cache, delayed-operations cache, service
        queue, read waiters, RMW chains, invalidation bookkeeping and
        live-copy transfer state all die with the node; parked
        continuations of killed threads are dropped with the objects
        that held them.  The transaction-id counter is *not* reset so a
        restarted node never reuses an xid that a late in-flight
        response might still name.
        """
        self._crash_gen += 1
        self._busy_until = 0
        self.pending = PendingWrites(
            self.params.pending_writes_capacity, xids=self.pending._xids
        )
        self.delayed = DelayedOpsCache(self.node_id, self.params.delayed_slots)
        self._read_waiters.clear()
        self._rmw_tokens.clear()
        self._rmw_chains = 0
        self._chain_waiters = WaitQueue("rmw-chains")
        self._invalid_words.clear()
        self._inval_gen.clear()
        self._copy_filters.clear()
        self._copy_handlers.clear()
        self._remote_reqs.clear()
        if self._reliable is not None:
            self._reliable.on_crash()
        self.down = True

    def on_restart(self) -> None:
        """Come back up as a new incarnation (epoch bump)."""
        self.down = False
        if self._reliable is not None:
            self._reliable.on_restart()

    def on_promoted_master(self, page: int) -> None:
        """Crash repair promoted our copy of ``page`` to master.

        Whatever this copy holds is now the authoritative data — the
        old master died under ``"scrub"`` durability, so any words we
        had marked stale can never be refetched.  The marks are cleared
        by fiat; generations are bumped so an in-flight refetch against
        the dead master cannot revalidate over the now-authoritative
        copy.
        """
        invalid = self._invalid_words.pop(page, None)
        if invalid:
            gen = self._inval_gen
            for offset in invalid:
                key = (page, offset)
                gen[key] = gen.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Reliable-layer callbacks (a peer crashed and restarted).
    # ------------------------------------------------------------------
    def on_reliable_flush(self, msg: Message) -> None:
        """Resolve one unacked message whose destination crashed.

        Called by the reliable layer when it learns (via the epoch
        handshake) that the peer it was retransmitting to died and
        restarted.  The message will never be acknowledged by the dead
        incarnation, but a blocked originator is waiting on it, so it
        must complete *somehow*:

        * UPDATE / INVALIDATE — mid-chain propagation into the dead
          node.  The copy-list was repaired at crash time, so consult
          the rebuilt tables: re-forward along the new chain if one
          exists, else the chain ends here.
        * WRITE_REQ — re-forward to the re-elected master if there is
          one.  When the master still lives on the crashed node, the
          write is *not* lost: a flush only ever fires on learning the
          peer's new epoch, i.e. its restarted incarnation is alive and
          (page tables survive a crash) still authoritative — re-send
          there.  Plain writes are idempotent, so a request the dead
          incarnation applied but never acked is safely re-applied.
        * RMW_REQ — never re-executed (the dead master may have already
          applied it pre-crash); instead a per-op *failure* value is
          fabricated (queue full / queue empty / lock held / 0) so the
          application's retry loop runs.
        * READ_REQ — re-read from a surviving copy when one exists,
          else from the restarted incarnation itself (under ``scrub``
          it answers with the zeroed frame, which poll loops treat as
          not-ready).
        * Responses (READ_RESP, WRITE_ACK, RMW_RESP) — re-sent against
          the peer's live incarnation: a chain that reached this node
          via a third party can answer a *new*-incarnation transaction
          while our believed epoch was still stale.  Genuinely dead
          answers are absorbed at the receiver as crash strays.
        * Page-copy data and shootdown traffic — dropped; the transfer
          died with the node.
        """
        self.crash_flushes += 1
        kind = msg.kind
        dead = msg.dst
        clist = None
        if msg.addr is not None:
            clist = self.crash_route(dead, msg.addr.page)
        if kind is _UPDATE or kind is _INVALIDATE:
            nxt = None
            if clist is not None:
                mine = clist.copy_on(self.node_id)
                if mine is not None and self.tables.knows(mine.page):
                    nxt = self.tables.next_of(mine.page)
            if nxt is not None and nxt.node != dead:
                word = nxt.word(msg.writes[0][0])
                self._emit(
                    kind, nxt.node, word, 0, msg.op, 0, msg.origin, msg.xid,
                    msg.writes,
                )
            else:
                self._complete_chain(msg.origin, msg.xid, msg.op)
        elif kind is _WRITE_REQ:
            master = clist.master if clist is not None else None
            offset = msg.addr.offset
            if master is not None and master.node == self.node_id:
                # Master re-elected to this very node while the request
                # was in flight: apply locally.
                write = partial(
                    self._apply_at_master, master.page,
                    [(offset, msg.value)], msg.origin, msg.xid, None,
                )
                self._work(self.params.cm_write_cycles, write)
            else:
                # Mastership moved to a survivor, or stayed on the
                # crashed node (or repair never touched the page): its
                # restarted incarnation is alive — that is what
                # triggered this flush — so the request continues there.
                target = (
                    master.word(offset)
                    if master is not None and master.node != dead
                    else msg.addr
                )
                self._emit(
                    _WRITE_REQ, target.node, target, msg.value, None, 0,
                    msg.origin, msg.xid,
                )
        elif kind is _RMW_REQ:
            self._fail_rmw(msg.origin, msg.xid, msg.op)
        elif kind is _READ_REQ:
            target = None
            if clist is not None:
                # The master if it survived, else the first survivor.
                alive = (c for c in clist.copies if c.node != dead)
                target = next(alive, None)
            if target is not None and target.node == self.node_id:
                # The surviving copy is local: serve it directly.
                value = self.memory.read(target.page, msg.addr.offset)
                self._finish_read(msg.origin, msg.xid, value)
            else:
                # A surviving copy elsewhere, or none: read from the
                # restarted incarnation (alive by construction of the
                # flush).
                addr = msg.addr
                if target is not None:
                    addr = target.word(addr.offset)
                self._emit(
                    _READ_REQ, addr.node, addr, 0, None, 0, msg.origin,
                    msg.xid,
                )
        elif kind is _WRITE_ACK or kind is _READ_RESP or kind is _RMW_RESP:
            # A flushed *response* is not necessarily answering a dead
            # transaction: when a chain reached this node via a third
            # party, our believed epoch for the originator can be stale
            # even though the transaction belongs to the peer's live
            # incarnation (which dropped our old-epoch send and
            # advertised its new epoch — that is what triggered this
            # flush).  Re-send against the live incarnation; an answer
            # to a transaction that truly died with the old one is
            # absorbed at the receiver as a crash stray.
            self._emit(
                kind, dead, None, msg.value, msg.op, 0, -1, msg.xid, None,
                msg.chain_done,
            )
        # Anything else (page-copy data, shootdown traffic) is simply
        # dropped: the transfer it belonged to died with the node.

    def on_peer_restart(self, peer: int) -> None:
        """Re-drive requests a restarted ``peer`` acked but never served.

        The reliable layer's flush covers messages the dead incarnation
        never wire-acknowledged.  This hook covers the complementary
        window: a request that reached the peer and was acked in the
        cycle or two before the crash, whose protocol action (and
        response) died with the volatile state — the sender has nothing
        left to retransmit, so without this the originator blocks
        forever.  Reads and writes are idempotent and simply re-sent to
        the live incarnation; an RMW may have been applied pre-crash, so
        — exactly like the flush path — a per-op failure is fabricated
        and the application's retry loop runs.
        """
        reqs = self._remote_reqs
        stuck = [
            (xid, rec) for xid, rec in reqs.items() if rec[1].node == peer
        ]
        for xid, (kind, addr, op, value) in stuck:
            if kind is _RMW_REQ:
                reqs.pop(xid, None)
                if xid in self._rmw_tokens:
                    self.crash_redrives += 1
                    self._fail_rmw(self.node_id, xid, op)
            elif (
                xid in self._read_waiters
                if kind is _READ_REQ
                else self.pending.knows(xid)
            ):
                # A read or write still awaited: re-send it as issued.
                self.crash_redrives += 1
                self._emit(kind, peer, addr, value, None, 0, self.node_id, xid)
            else:
                reqs.pop(xid, None)

    # ------------------------------------------------------------------
    # Shared crash-time completions.
    # ------------------------------------------------------------------
    def _fail_rmw(self, origin: int, xid: int, op: Optional[OpCode]) -> None:
        """Answer an RMW a crash lost with its per-op failure value, so
        the issuer's retry loop runs instead of the op executing twice."""
        value = _rmw_failure(op)
        if origin == self.node_id:
            self._deliver_rmw_result(xid, value, True)
        else:
            self._emit(
                _RMW_RESP, origin, None, value, op, 0, -1, xid, None, True
            )

    def _end_chain(self, msg: Message) -> None:
        """End an update/invalidate chain whose page crash repair
        dropped here: the repaired chain bypasses this node, so the
        originator is released (a duplicate completion from the
        re-routed chain is waived by the monitor's crash leniency)."""
        origin = msg.origin
        xid = msg.xid
        op = msg.op
        self.fabric.release(msg)
        self._complete_chain(origin, xid, op)

    def _absorb(self, msg: Message) -> None:
        """Count and drop a stray answer to state a crash destroyed."""
        self.crash_strays += 1
        self.fabric.release(msg)

    def _master_of(self, page: int) -> Optional[PhysPage]:
        """Master lookup tolerating crash-dropped local pages.

        A peer routing with a pre-crash mapping can land a request on a
        page this node no longer holds — its copy was dropped, or its
        mastership promoted away, by crash repair.  Consult the repaired
        copy-list recorded at crash time: the master may now live on
        another node (forward there) or nowhere useful (None — the
        caller completes the request best-effort).
        """
        if self.tables.knows(page):
            return self.tables.master_of(page)
        clist = self.crash_route(self.node_id, page)
        if clist is not None and len(clist):
            master = clist.master
            if master.node != self.node_id:
                return master
        return None

    # ------------------------------------------------------------------
    # Overrides of the base protocol.
    # ------------------------------------------------------------------
    def _work(self, cycles: int, fn: Callable[[], None]) -> None:
        # Scheduled service-queue work must not touch state cleared by
        # a crash: void the completion if the node died (and was
        # possibly restarted) between scheduling and execution.
        super()._work(
            cycles, partial(self._unless_crashed, self._crash_gen, fn)
        )

    def _unless_crashed(self, gen: int, fn: Callable[[], None]) -> None:
        if self._crash_gen == gen:
            fn()

    def cpu_read_remote(self, addr: PhysAddr, on_value) -> int:
        xid = super().cpu_read_remote(addr, on_value)
        self._remote_reqs[xid] = (_READ_REQ, addr, None, 0)
        return xid

    def _route_write(
        self, addr: PhysAddr, value: int, xid: int
    ) -> Optional[PhysAddr]:
        target = super()._route_write(addr, value, xid)
        if target is not None:
            self._remote_reqs[xid] = (_WRITE_REQ, target, None, value)
        return target

    def _route_rmw(
        self, op: OpCode, addr: PhysAddr, operand: int, xid: int
    ) -> Optional[PhysAddr]:
        target = super()._route_rmw(op, addr, operand, xid)
        if target is not None:
            self._remote_reqs[xid] = (_RMW_REQ, target, op, operand)
        return target

    def _finish_read(self, origin: int, xid: int, value: int) -> None:
        if origin == self.node_id:
            self._remote_reqs.pop(xid, None)
        super()._finish_read(origin, xid, value)

    def _ack_local(self, xid: int, op: Optional[OpCode]) -> None:
        if op is None:
            self._remote_reqs.pop(xid, None)
            if not self.pending.knows(xid):
                # A node that died mid-chain can yield both a flushed
                # local completion and a late WRITE_ACK for the same
                # transaction; the second one is absorbed.
                self.crash_strays += 1
                return
        super()._ack_local(xid, op)

    def _retire_chain(self) -> None:
        if self._rmw_chains <= 0:
            self.crash_strays += 1
            return
        super()._retire_chain()

    def _run_op(
        self, op: OpCode, page: int, offset: int, operand: int
    ) -> OpOutcome:
        try:
            return super()._run_op(op, page, offset, operand)
        except ProtocolError:
            # A scrub restart (or a promoted survivor) can leave a
            # queue control word corrupted; the op fails so the
            # issuer's retry loop runs instead of the machine dying.
            return OpOutcome(returned=_rmw_failure(op))

    def _deliver_rmw_result(
        self, xid: int, value: int, chain_done: bool
    ) -> None:
        self._remote_reqs.pop(xid, None)
        if xid not in self._rmw_tokens:
            # Late response for an operation a crash already resolved
            # (flush-fabricated failure), or one issued by a thread
            # that died with the node.
            self.crash_strays += 1
            return
        super()._deliver_rmw_result(xid, value, chain_done)

    def _invalidate_words(self, page: int, writes) -> None:
        if self.tables.is_master(page):
            # Crash repair promoted this copy to master while the
            # invalidate chain was in flight.  A master is never stale:
            # apply the chain's data instead of marking it invalid.
            self._write_words(page, writes)
        else:
            super()._invalidate_words(page, writes)

    def receive(self, msg: Message) -> None:
        if self.down:
            # The node is crashed: whatever the wire still delivers
            # hits a powered-off port.
            self.fabric.stats.drops += 1
            return
        super().receive(msg)

    def _on_read_resp(self, msg: Message) -> None:
        self._remote_reqs.pop(msg.xid, None)
        if msg.xid in self._read_waiters:
            super()._on_read_resp(msg)
        else:
            self._absorb(msg)

    def _on_transfer_reply(self, msg: Message) -> None:
        if msg.xid in self._copy_handlers:
            super()._on_transfer_reply(msg)
        else:
            self._absorb(msg)

    def _serve_read(self, msg: Message) -> None:
        if self.tables.knows(msg.addr.page):
            super()._serve_read(msg)
        else:
            # Crash repair freed this frame: route to the repaired
            # master, or answer 0 (poll loops retry) if none survives.
            self._forward_read(msg)

    def _forward_read(self, msg: Message) -> None:
        if self._master_of(msg.addr.page) is not None:
            super()._forward_read(msg)
            return
        # The page died in a crash; poll loops treat 0 as not-ready and
        # retry against the repaired mapping.
        origin = msg.origin
        xid = msg.xid
        self.fabric.release(msg)
        self._finish_read(origin, xid, 0)

    def _receive_write_req(self, msg: Message) -> None:
        if self._master_of(msg.addr.page) is not None:
            super()._receive_write_req(msg)
            return
        # Crash repair dropped this page and left no master to forward
        # to: the write's target words died with the crash.  Complete
        # the chain best-effort so the originator's pending-writes
        # entry (and any fence behind it) clears.
        origin = msg.origin
        xid = msg.xid
        self.fabric.release(msg)
        self._complete_chain(origin, xid, None)

    def _receive_rmw_req(self, msg: Message) -> None:
        if self._master_of(msg.addr.page) is not None:
            super()._receive_rmw_req(msg)
            return
        # No master anywhere after crash repair: fail the op (exactly
        # the reliable-flush treatment of an RMW lost to a crash).
        origin = msg.origin
        xid = msg.xid
        op = msg.op
        self.fabric.release(msg)
        self._fail_rmw(origin, xid, op)

    def _apply_update(self, msg: Message) -> None:
        if self.tables.knows(msg.addr.page):
            super()._apply_update(msg)
        else:
            self._end_chain(msg)

    def _apply_invalidate(self, msg: Message) -> None:
        if self.tables.knows(msg.addr.page):
            super()._apply_invalidate(msg)
        else:
            self._end_chain(msg)


def harvest_crashes(result, machine) -> None:
    """Fill a stress or ledger ``result``'s crash fields from the
    machine's crash log and coherence managers (zeros if never armed)."""
    log = machine.crash_log
    result.crash_events = list(log)
    result.crashes = sum(1 for e in log if e[2] == "crash")
    result.recoveries = sum(1 for e in log if e[2] == "restart")
    for node in machine.nodes:
        cm = node.cm
        if isinstance(cm, CrashTolerantCM):
            result.crash_flushes += cm.crash_flushes
            result.crash_redrives += cm.crash_redrives
            result.crash_strays += cm.crash_strays
        if cm.reliable is not None:
            result.stale_epoch_drops += cm.reliable.stale_epoch_drops
