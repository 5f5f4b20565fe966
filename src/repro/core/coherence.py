"""The PLUS coherence manager (Section 2.3 and 3.1).

One coherence manager (CM) per node implements the non-demand,
write-update coherence protocol over replicated pages and executes the
delayed read-modify-write operations:

* **Reads** of remote addresses are forwarded to the owning node's CM,
  which replies with the word (any copy serves reads).
* **Writes** are always performed first on the master copy and then
  propagated down the ordered copy-list as UPDATE messages; the last copy
  acknowledges the originator.  The issuing processor does not stall: the
  CM tracks in-flight writes in the pending-writes cache.
* **Delayed operations** are routed to the master copy, executed there
  atomically, their old value returned to the issuer's delayed-operations
  cache, and any memory mutations propagated down the copy-list exactly
  like writes.
* **Fences** stall the issuer until its pending-writes cache is empty and
  all update chains of its delayed operations have completed.

The CM is modelled as a single server: protocol actions queue and are
serviced one at a time with per-action cycle costs (Table 3-1 for the
delayed operations).  That serialisation is what makes a heavily-shared
queue page a bandwidth bottleneck, a behaviour both evaluation
applications of the paper are built around.  Like the paper's machine,
this CM assumes no node ever fails; crash tolerance is the subclass
:class:`repro.core.crash.CrashTolerantCM`.
"""

from __future__ import annotations

from functools import partial
from itertools import count
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.copylist import CMTables
from repro.core.delayed import DelayedOpsCache, Token
from repro.core.ops import OpOutcome, execute_op
from repro.core.params import OpCode, TimingParams
from repro.core.pending import PendingWrites
from repro.core.reliable import ReliableChannels
from repro.errors import AddressError, ProtocolError
from repro.memory.address import PhysAddr, PhysPage
from repro.memory.physical import LocalMemory
from repro.network.fabric import Fabric
from repro.network.message import Message, MsgKind
from repro.sim.engine import Engine
from repro.sim.process import WaitQueue
from repro.stats.counters import NodeCounters

ValueCallback = Callable[[int], None]
Callback = Callable[[], None]
SnoopHook = Callable[[int, int, int], None]

# Enum members bound once at import: an ``Enum.MEMBER`` load costs
# ~10x a global on CPython 3.11 (DESIGN.md, "Hot-path rules").
_READ_REQ = MsgKind.READ_REQ
_READ_RESP = MsgKind.READ_RESP
_WRITE_REQ = MsgKind.WRITE_REQ
_UPDATE = MsgKind.UPDATE
_INVALIDATE = MsgKind.INVALIDATE
_WRITE_ACK = MsgKind.WRITE_ACK
_RMW_REQ = MsgKind.RMW_REQ
_RMW_RESP = MsgKind.RMW_RESP
_PAGE_COPY_DATA = MsgKind.PAGE_COPY_DATA
_TLB_SHOOTDOWN_ACK = MsgKind.TLB_SHOOTDOWN_ACK
_NET_ACK = MsgKind.NET_ACK


class CoherenceManager:
    """Protocol engine of one PLUS node."""

    def __init__(
        self,
        node_id: int,
        engine: Engine,
        fabric: Fabric,
        memory: LocalMemory,
        params: TimingParams,
        counters: NodeCounters,
    ) -> None:
        self.node_id = node_id
        self.engine = engine
        self.fabric = fabric
        self.memory = memory
        self.params = params
        self.counters = counters

        self.tables = CMTables(node_id, memory)
        self.pending = PendingWrites(params.pending_writes_capacity)
        self.delayed = DelayedOpsCache(node_id, params.delayed_slots)

        #: Called for every word the CM writes into local memory, so the
        #: processor cache can snoop (write-through + bus snooping keeps
        #: the cache coherent with CM traffic, Section 2.3).
        self.snoop: SnoopHook = lambda page, offset, value: None
        #: Called when a TLB-shootdown interrupt arrives for a virtual
        #: page (set by the node: drops the mapping and flushes the TLB).
        self.shootdown_hook: Callable[[int], None] = lambda vpage: None

        self._busy_until = 0
        self._xids = count()
        self._read_waiters: Dict[int, ValueCallback] = {}
        self._rmw_tokens: Dict[int, Token] = {}
        self._rmw_chains = 0
        self._chain_waiters = WaitQueue("rmw-chains")

        # Word-granularity invalidation state for the "invalidate"
        # protocol variant: offsets of locally-held words whose contents
        # are stale (the master has newer data).  Master copies are never
        # invalidated, so a page is always fully valid at its master.
        self._invalid_words: Dict[int, Set[int]] = {}
        # Per-word invalidation generation, bumped every time an
        # INVALIDATE marks the word.  A refetch response may only
        # revalidate the local copy if no invalidate was applied while
        # the read was in flight: over an unreliable mesh the master's
        # response payload can be a retransmission snapshotted before a
        # later write, and writing it back after that write's invalidate
        # arrived would durably resurrect stale data.
        self._inval_gen: Dict[Tuple[int, int], int] = {}

        # Background page-copy support: per-target-page set of offsets
        # dirtied by updates while the copy is streaming (those words must
        # not be overwritten by stale copy data), plus per-transfer data
        # handlers registered by the replication manager.
        self._copy_filters: Dict[int, Set[int]] = {}
        self._copy_handlers: Dict[int, Callable[[Message], None]] = {}

        #: Reliable-delivery sublayer (:mod:`repro.core.reliable`),
        #: armed by :meth:`enable_reliability` when the machine installs
        #: a fault plan.  None on the lossless fast path.
        self._reliable: Optional[ReliableChannels] = None

        #: Handler per message kind, list-indexed by ``MsgKind.idx``
        #: (dispatch is per-message; an enum-keyed dict would hash, an
        #: if/elif chain would compare up to 13 identities).
        self._handlers = [
            self._on_read_req,        # READ_REQ
            self._on_read_resp,       # READ_RESP
            self._receive_write_req,  # WRITE_REQ
            self._on_update,          # UPDATE
            self._on_invalidate,      # INVALIDATE
            self._on_write_ack,       # WRITE_ACK
            self._receive_rmw_req,    # RMW_REQ
            self._on_rmw_resp,        # RMW_RESP
            self._on_page_copy_req,   # PAGE_COPY_REQ
            self._on_transfer_reply,  # PAGE_COPY_DATA
            self._on_tlb_shootdown,   # TLB_SHOOTDOWN
            self._on_transfer_reply,  # TLB_SHOOTDOWN_ACK
            self._on_unroutable,      # NET_ACK (recovery layer only)
        ]
        #: Table 3-1 op costs as a dense list (``op_cycles[op.idx]``).
        self._op_cycles = [params.op_cycles[op] for op in OpCode]

        # The lossless fast path needs no wire-side processing, so the
        # fabric delivers straight into protocol dispatch; arming the
        # recovery layer rebinds the full :meth:`receive` in front of it.
        fabric.attach(node_id, self.dispatch)

    # ------------------------------------------------------------------
    # Reliable delivery (fault-injected runs only).
    # ------------------------------------------------------------------
    def enable_reliability(self) -> None:
        """Arm the reliable-delivery sublayer for this CM.

        Every outgoing protocol message is then sequenced, acknowledged
        and retransmitted on loss, and every incoming one is deduplicated
        and reordered back into per-pair FIFO order before dispatch.
        Must be called before any traffic flows (the machine does this
        as part of ``install_faults``)."""
        if self._reliable is None:
            self._reliable = ReliableChannels(self)
            self.fabric.rebind(self.node_id, self.receive)

    @property
    def reliable(self) -> Optional[ReliableChannels]:
        """The reliable-delivery sublayer, or None when not armed."""
        return self._reliable

    def transmit(self, msg: Message) -> None:
        """Send one protocol message through this CM's outgoing stack.

        The single egress point for CM traffic: with reliability armed
        the message is sequenced and tracked for retransmission;
        otherwise it goes straight to the fabric.  Subsystems that build
        their own :class:`Message` objects (the replication manager's
        page-copy and shootdown traffic) must use this instead of raw
        ``fabric.send`` so their messages survive an unreliable mesh
        too."""
        if self._reliable is None:
            self.fabric.send(msg)
        else:
            self._reliable.send(msg)

    def recovery_report(self) -> List[str]:
        """Reliable-layer stuck-state lines (empty when quiet/disarmed)."""
        return [] if self._reliable is None else self._reliable.describe()

    # ------------------------------------------------------------------
    # CM service queue: one protocol action at a time.
    # ------------------------------------------------------------------
    def _work(self, cycles: int, fn: Callback) -> None:
        engine = self.engine
        now = engine._now
        busy = self._busy_until
        start = now if now > busy else busy
        until = start + cycles
        self._busy_until = until
        # Inlined near-lane fast path of ``Engine.at``: service times are
        # small TimingParams constants, so the completion almost always
        # lands inside the calendar window.
        if until - now < 512 and engine._tie_rng is None:  # Engine.BUCKETS
            engine._buckets[until & 511].append(fn)
            engine._near += 1
        else:
            engine.at(until, fn)

    def _emit(
        self,
        kind: MsgKind,
        dst: int,
        addr: Optional[PhysAddr],
        value: int,
        op: Optional[OpCode],
        operand: int,
        origin: int,
        xid: int,
        writes: Optional[List[Tuple[int, int]]] = None,
        chain_done: bool = False,
        words: Optional[List[int]] = None,
    ) -> None:
        """Build one protocol message from this node and send it.

        The CM's single emitter.  Arguments are positional (``kind``,
        ``dst``, ``addr``, ``value``, ``op``, ``operand``, ``origin``,
        ``xid``, then the rarer ``writes``, ``chain_done`` and
        ``words``) so that service work can be queued as a
        ``partial`` of it and every send is a plain positional call.
        """
        # Pool-aware message construction: reuse a recycled Message when
        # identity does not matter (see Fabric._refresh_pooling); resetting
        # seq/msg_id makes a reused object indistinguishable from a fresh
        # one (the fabric stamps ids by injection order either way).
        fabric = self.fabric
        if fabric._pooling and fabric._msg_pool:
            msg = fabric._msg_pool.pop()
            msg.kind = kind
            msg.src = self.node_id
            msg.dst = dst
            msg.addr = addr
            msg.value = value
            msg.op = op
            msg.operand = operand
            msg.origin = origin
            msg.xid = xid
            msg.writes = writes or []
            msg.words = words or []
            msg.chain_done = chain_done
            msg.seq = -1
            msg.msg_id = -1
            msg.epoch = 0
        else:
            msg = Message(
                kind,
                self.node_id,
                dst,
                addr,
                value,
                op,
                operand,
                origin,
                xid,
                words or [],
                writes or [],
                chain_done,
            )
        if self._reliable is None:
            fabric.send(msg)
        else:
            self._reliable.send(msg)

    # ------------------------------------------------------------------
    # Processor-facing API (called by the node after address translation).
    # ------------------------------------------------------------------
    def when_safe_to_read(self, addr: PhysAddr, fn: Callback) -> None:
        """Run ``fn`` once no local write to ``addr`` is still pending.

        Reading a location currently being written blocks until the write
        completes, which preserves strong ordering within one processor.
        """
        self.pending.when_clear(addr, fn)

    def cpu_read_remote(self, addr: PhysAddr, on_value: ValueCallback) -> int:
        """Blocking read of a word on another node; returns its xid.

        ``on_value`` fires when the response arrives; the fixed overhead
        (request formation + remote service) is the paper's ~32 cycles on
        top of the network round trip.
        """
        if addr.node == self.node_id:
            raise ProtocolError(
                f"cpu_read_remote on local address {addr}",
                cycle=self.engine.now,
                node=self.node_id,
            )
        self.counters.remote_reads += 1
        xid = next(self._xids)
        self._read_waiters[xid] = on_value
        self._work(
            self.params.cm_request_cycles,
            partial(
                self._emit,
                _READ_REQ,
                addr.node,
                addr,
                0,
                None,
                0,
                self.node_id,
                xid,
            ),
        )
        return xid

    def cpu_write(
        self, addr: PhysAddr, value: int, on_accepted: Callback
    ) -> None:
        """Issue a write; ``on_accepted`` fires once it is buffered.

        The processor continues as soon as the write occupies a
        pending-writes entry; completion is tracked by the CM.  With the
        cache full the processor stalls until an entry frees.
        """
        pending = self.pending
        if pending.is_full:
            # Parked again (and counted as another stall) each time it
            # is woken while the cache is still full.
            pending.when_room(
                partial(self.cpu_write, addr, value, on_accepted)
            )
            return
        xid = pending.add(addr)
        on_accepted()
        self._work(
            self.params.cm_forward_cycles,
            partial(self._route_write, addr, value, xid),
        )

    def cpu_issue(
        self,
        op: OpCode,
        addr: PhysAddr,
        operand: int,
        on_token: Callable[[Token], None],
    ) -> None:
        """Issue a delayed operation; ``on_token`` receives its identifier.

        Stalls while all delayed-operation slots are in flight, and —
        because a delayed operation reads (and usually writes) its target
        — while the issuer itself has a pending write to ``addr``.
        """
        self.pending.when_clear(
            addr, partial(self._alloc_rmw, op, addr, operand, on_token)
        )

    def _alloc_rmw(
        self,
        op: OpCode,
        addr: PhysAddr,
        operand: int,
        on_token: Callable[[Token], None],
    ) -> None:
        delayed = self.delayed
        if not delayed.has_free_slot:
            delayed.when_slot_free(
                partial(self._alloc_rmw, op, addr, operand, on_token)
            )
            return
        token = delayed.allocate(op)
        self.counters.count_rmw(op)
        xid = next(self._xids)
        self._rmw_tokens[xid] = token
        self._rmw_chains += 1
        on_token(token)
        self._work(
            self.params.cm_forward_cycles,
            partial(self._route_rmw, op, addr, operand, xid),
        )

    def cpu_result(self, token: Token, on_value: ValueCallback) -> None:
        """Retrieve a delayed result, blocking until it is available.

        Reading the result deallocates the slot.
        """
        self.delayed.when_ready(
            token, partial(self._take_result, token, on_value)
        )

    def _take_result(self, token: Token, on_value: ValueCallback) -> None:
        on_value(self.delayed.take(token))

    def cpu_poll(self, token: Token) -> Optional[int]:
        """Non-blocking status check; the slot stays allocated."""
        return self.delayed.poll(token)

    def cpu_fence(self, on_done: Callback) -> None:
        """Fence: ``on_done`` fires once every earlier write and every
        delayed-operation update chain of this processor has completed."""
        self.counters.fences += 1
        self._fence_check(on_done)

    def _fence_check(self, on_done: Callback) -> None:
        if not self.pending.is_empty:
            self.pending.when_empty(partial(self._fence_check, on_done))
        elif self._rmw_chains:
            self._chain_waiters.park(partial(self._fence_check, on_done))
        else:
            on_done()

    # ------------------------------------------------------------------
    # Write path.
    # ------------------------------------------------------------------
    def _route_write(
        self, addr: PhysAddr, value: int, xid: int
    ) -> Optional[PhysAddr]:
        """Send a buffered write towards its master copy; returns the
        address the request went to (None when the master is local)."""
        if addr.node != self.node_id:
            self.counters.remote_writes += 1
            self._emit(
                _WRITE_REQ,
                addr.node,
                addr,
                value,
                None,
                0,
                self.node_id,
                xid,
            )
            return addr
        master = self.tables.master_of(addr.page)
        if master.node == self.node_id:
            if self.tables.next_of(master.page) is None:
                self.counters.local_writes += 1
            else:
                self.counters.remote_writes += 1
            self._apply_at_master(
                master.page, [(addr.offset, value)], self.node_id, xid, None
            )
            return None
        self.counters.remote_writes += 1
        self.counters.writes_forwarded += 1
        target = master.word(addr.offset)
        self._emit(
            _WRITE_REQ, master.node, target, value, None, 0, self.node_id, xid
        )
        return target

    def _apply_at_master(
        self,
        page: int,
        writes: List[Tuple[int, int]],
        origin: int,
        xid: int,
        op: Optional[OpCode],
    ) -> None:
        """Apply word writes at the local master copy and propagate."""
        self._write_words(page, writes)
        self.counters.masters_written += 1
        nxt = self.tables.next_of(page)
        if nxt is None:
            self._complete_chain(origin, xid, op)
        else:
            self._emit(
                self._propagation_kind(),
                nxt.node,
                nxt.word(writes[0][0]),
                0,
                op,
                0,
                origin,
                xid,
                writes,
            )

    def _propagation_kind(self) -> MsgKind:
        if self.params.coherence_protocol == "invalidate":
            return _INVALIDATE
        return _UPDATE

    def _write_word(self, page: int, offset: int, value: int) -> None:
        self.memory.write(page, offset, value)
        invalid = self._invalid_words.get(page)
        if invalid is not None:
            invalid.discard(offset)
        dirty = self._copy_filters.get(page)
        if dirty is not None:
            dirty.add(offset)
        self.snoop(page, offset, value)

    def _write_words(self, page: int, writes: List[Tuple[int, int]]) -> None:
        """Apply one message's word writes to a local page (hot path).

        The per-page state (frame, invalid-word set, live-copy filter,
        snoop hook) is resolved once per batch instead of once per word.
        """
        self.memory.write_batch(page, writes)
        invalid = self._invalid_words.get(page)
        dirty = self._copy_filters.get(page)
        if invalid is not None or dirty is not None:
            for offset, _value in writes:
                if invalid is not None:
                    invalid.discard(offset)
                if dirty is not None:
                    dirty.add(offset)
        snoop = self.snoop
        for offset, value in writes:
            snoop(page, offset, value)

    # ------------------------------------------------------------------
    # Word validity (invalidate-protocol variant).
    # ------------------------------------------------------------------
    def word_valid(self, addr: PhysAddr) -> bool:
        """False when the local word is stale under the invalidate
        protocol (the next local read must re-fetch from the master)."""
        invalid = self._invalid_words.get(addr.page)
        return invalid is None or addr.offset not in invalid

    def _apply_invalidate(self, msg: Message) -> None:
        addr = msg.addr
        assert addr is not None
        page = addr.page
        writes = msg.writes
        origin = msg.origin
        xid = msg.xid
        op = msg.op
        self._invalidate_words(page, writes)
        self.counters.invalidations_applied += 1
        nxt = self.tables.next_of(page)
        self.fabric.release(msg)
        if nxt is None:
            self._complete_chain(origin, xid, op)
        else:
            self._emit(
                _INVALIDATE,
                nxt.node,
                nxt.word(addr.offset),
                0,
                op,
                0,
                origin,
                xid,
                writes,
            )

    def _invalidate_words(
        self, page: int, writes: List[Tuple[int, int]]
    ) -> None:
        """Mark one invalidate message's words stale in a local copy."""
        invalid = self._invalid_words.setdefault(page, set())
        gen = self._inval_gen
        for offset, _value in writes:
            invalid.add(offset)
            gen[(page, offset)] = gen.get((page, offset), 0) + 1
            self.snoop(page, offset, 0)  # drop/refresh the cached line

    def cpu_refetch(self, addr: PhysAddr, on_value: ValueCallback) -> None:
        """Re-fetch a locally-invalid word from its master copy, then
        revalidate the local copy with the returned value.

        The returned value is always handed to the processor — it is the
        master's word at serve time, inside the read's issue/completion
        window, so the read linearizes correctly.  But the *local copy*
        is only revalidated when no invalidate for this word applied
        while the read was in flight: a delayed or retransmitted
        response can carry a payload snapshotted before a later write,
        and revalidating with it would clear that write's invalidate
        mark and leave stale data the oracle (rightly) rejects.  When
        the generation moved, the word simply stays invalid and the next
        read refetches again.
        """
        master = self.tables.master_of(addr.page)
        if master.node == self.node_id:
            raise ProtocolError(
                f"master copy of page {addr.page} cannot be invalid",
                cycle=self.engine.now,
                node=self.node_id,
            )
        gen = self._inval_gen.get((addr.page, addr.offset), 0)
        self.cpu_read_remote(
            master.word(addr.offset),
            partial(self._revalidate, addr, gen, on_value),
        )

    def _revalidate(
        self, addr: PhysAddr, gen: int, on_value: ValueCallback, value: int
    ) -> None:
        if self._inval_gen.get((addr.page, addr.offset), 0) == gen:
            self._write_word(addr.page, addr.offset, value)
        else:
            self.counters.stale_refetches += 1
        on_value(value)

    def _complete_chain(
        self, origin: int, xid: int, op: Optional[OpCode]
    ) -> None:
        """The write/update chain for transaction ``xid`` has ended here."""
        if origin == self.node_id:
            self._ack_local(xid, op)
        else:
            self._emit(_WRITE_ACK, origin, None, 0, op, 0, -1, xid)

    def _ack_local(self, xid: int, op: Optional[OpCode]) -> None:
        if op is None:
            self.pending.complete(xid)
        else:
            self._retire_chain()

    def _retire_chain(self) -> None:
        if self._rmw_chains <= 0:
            raise ProtocolError(
                "RMW chain underflow",
                cycle=self.engine.now,
                node=self.node_id,
            )
        self._rmw_chains -= 1
        if self._rmw_chains == 0:
            self._chain_waiters.wake_all()

    # ------------------------------------------------------------------
    # Delayed-operation path.
    # ------------------------------------------------------------------
    def _route_rmw(
        self, op: OpCode, addr: PhysAddr, operand: int, xid: int
    ) -> Optional[PhysAddr]:
        """Send a delayed operation towards its master copy; returns the
        address the request went to (None when the master is local)."""
        if addr.node != self.node_id:
            self.counters.rmw_remote += 1
            self._emit(
                _RMW_REQ,
                addr.node,
                addr,
                0,
                op,
                operand,
                self.node_id,
                xid,
            )
            return addr
        master = self.tables.master_of(addr.page)
        if master.node == self.node_id:
            if self.tables.next_of(master.page) is None:
                self.counters.rmw_local += 1
            else:
                self.counters.rmw_remote += 1
            self._work(
                self._op_cycles[op.idx],
                partial(
                    self._execute_rmw,
                    op,
                    master.word(addr.offset),
                    operand,
                    self.node_id,
                    xid,
                ),
            )
            return None
        self.counters.rmw_remote += 1
        target = master.word(addr.offset)
        self._emit(
            _RMW_REQ, master.node, target, 0, op, operand, self.node_id, xid
        )
        return target

    def _execute_rmw(
        self, op: OpCode, addr: PhysAddr, operand: int, origin: int, xid: int
    ) -> None:
        """Run one delayed operation atomically at the local master copy."""
        page = addr.page
        if not self.tables.is_master(page):
            raise ProtocolError(
                f"node {self.node_id} executing RMW on non-master page {page}",
                cycle=self.engine.now,
                node=self.node_id,
            )
        outcome = self._run_op(op, page, addr.offset, operand)
        chain_done = True
        if outcome.writes:
            self._write_words(page, outcome.writes)
            self.counters.masters_written += 1
            nxt = self.tables.next_of(page)
            if nxt is not None:
                chain_done = False
                self._emit(
                    self._propagation_kind(),
                    nxt.node,
                    nxt.word(outcome.writes[0][0]),
                    0,
                    op,
                    0,
                    origin,
                    xid,
                    outcome.writes,
                )
        if origin == self.node_id:
            self._deliver_rmw_result(xid, outcome.returned, chain_done)
        else:
            self._emit(
                _RMW_RESP,
                origin,
                None,
                outcome.returned,
                op,
                0,
                -1,
                xid,
                None,
                chain_done,
            )

    def _run_op(
        self, op: OpCode, page: int, offset: int, operand: int
    ) -> OpOutcome:
        """Execute ``op`` on the local master page (no side effects)."""
        return execute_op(
            op,
            offset,
            operand,
            read=self.memory.words_of(page).__getitem__,
            page_words=self.params.page_words,
            ring_base=self.params.queue_ring_base,
        )

    def _deliver_rmw_result(
        self, xid: int, value: int, chain_done: bool
    ) -> None:
        token = self._rmw_tokens.pop(xid, None)
        if token is None:
            raise ProtocolError(
                f"RMW response for unknown xid {xid}",
                cycle=self.engine.now,
                node=self.node_id,
            )
        self.delayed.fill(token, value)
        if chain_done:
            self._retire_chain()

    # ------------------------------------------------------------------
    # Background page-copy support (replication, Section 2.4).
    # ------------------------------------------------------------------
    def start_page_copy(self, local_page: int) -> None:
        """Begin filtering updates into ``local_page`` during a live copy."""
        self._copy_filters[local_page] = set()

    def finish_page_copy(self, local_page: int) -> Set[int]:
        """End the live-copy filter; returns the dirtied offsets."""
        return self._copy_filters.pop(local_page, set())

    def register_copy_handler(
        self, xid: int, handler: Callable[[Message], None]
    ) -> None:
        """Route PAGE_COPY_DATA messages for transfer ``xid`` to ``handler``."""
        self._copy_handlers[xid] = handler

    def unregister_copy_handler(self, xid: int) -> None:
        self._copy_handlers.pop(xid, None)

    def apply_copy_words(
        self, page: int, start: int, words: List[int], stale=()
    ) -> None:
        """Install streamed page-copy words, skipping update-dirtied ones.

        ``stale`` lists offsets that were invalid at the source copy;
        they are marked invalid here too (unless an update or invalidate
        already touched them during the transfer).
        """
        dirty = self._copy_filters.get(page, set())
        for i, value in enumerate(words):
            offset = start + i
            if offset not in dirty:
                self.memory.write(page, offset, value)
                self.snoop(page, offset, value)
        if stale:
            invalid = self._invalid_words.setdefault(page, set())
            for offset, _zero in stale:
                if offset not in dirty:
                    invalid.add(offset)

    # ------------------------------------------------------------------
    # Network receive path.
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        """Entry point for every message delivered by the fabric.

        With reliability armed this is the wire side: NET_ACKs feed the
        retransmission queues, sequenced messages pass through the dedup
        window and reorder buffer, and only the exactly-once, in-order
        survivors reach :meth:`dispatch`.  Unsequenced messages (none are
        sent while reliability is armed, but a guard beats silent
        misordering) and the entire disarmed fast path dispatch directly.
        """
        reliable = self._reliable
        if reliable is not None:
            if msg.kind is _NET_ACK:
                reliable.on_net_ack(msg)
                return
            if msg.seq >= 0:
                reliable.on_wire(msg)
                return
        self.dispatch(msg)

    def dispatch(self, msg: Message) -> None:
        """Act on one protocol message (post-recovery-layer)."""
        self._handlers[msg.kind.idx](msg)

    # Per-kind handlers (list-dispatched by :meth:`dispatch`).  Handlers
    # that fully consume their message release it back to the fabric's
    # free list as their last step; ones that defer work extract the
    # fields they need first so the release is not delayed behind the
    # CM's service queue.

    def _on_read_req(self, msg: Message) -> None:
        self._work(
            self.params.cm_service_cycles, partial(self._serve_read, msg)
        )

    def _on_read_resp(self, msg: Message) -> None:
        waiter = self._read_waiters.pop(msg.xid, None)
        if waiter is None:
            raise ProtocolError(
                f"read response for unknown xid {msg.xid}",
                cycle=self.engine.now,
                node=self.node_id,
                msg=msg,
            )
        value = msg.value
        self.fabric.release(msg)
        waiter(value)

    def _on_update(self, msg: Message) -> None:
        self._work(
            self.params.cm_write_cycles, partial(self._apply_update, msg)
        )

    def _on_invalidate(self, msg: Message) -> None:
        self._work(
            self.params.cm_write_cycles,
            partial(self._apply_invalidate, msg),
        )

    def _on_write_ack(self, msg: Message) -> None:
        xid = msg.xid
        op = msg.op
        self.fabric.release(msg)
        self._ack_local(xid, op)

    def _on_rmw_resp(self, msg: Message) -> None:
        xid = msg.xid
        value = msg.value
        chain_done = msg.chain_done
        self.fabric.release(msg)
        self._deliver_rmw_result(xid, value, chain_done)

    def _on_page_copy_req(self, msg: Message) -> None:
        self._work(
            self.params.cm_service_cycles, partial(self._serve_page_copy, msg)
        )

    def _on_transfer_reply(self, msg: Message) -> None:
        """PAGE_COPY_DATA or TLB_SHOOTDOWN_ACK: hand it to the handler
        its replication transfer registered."""
        handler = self._copy_handlers.get(msg.xid)
        if handler is None:
            raise ProtocolError(
                f"{msg.kind.value} for unknown transfer {msg.xid}",
                cycle=self.engine.now,
                node=self.node_id,
                msg=msg,
            )
        handler(msg)

    def _on_tlb_shootdown(self, msg: Message) -> None:
        self._work(
            self.params.tlb_shootdown_cycles,
            partial(self._serve_shootdown, msg),
        )

    def _on_unroutable(self, msg: Message) -> None:
        raise ProtocolError(
            f"unhandled message kind {msg.kind}",
            cycle=self.engine.now,
            node=self.node_id,
            msg=msg,
        )

    def _serve_read(self, msg: Message) -> None:
        addr = msg.addr
        assert addr is not None
        if not self.word_valid(addr):
            # Invalidate-protocol variant: this copy's word is stale, so
            # the request is forwarded to the master (always valid).
            self._forward_read(msg)
            return
        try:
            value = self.memory.read(addr.page, addr.offset)
        except AddressError:
            # Live deletion reclaimed this frame and the request outlived
            # the drain window (congested large machines).  The deleted
            # copy's table entry survives as a forwarding tombstone —
            # chase it to a live copy.
            self._forward_read(msg)
            return
        origin = msg.origin
        xid = msg.xid
        self.fabric.release(msg)
        # _finish_read, not a bare send: a request forwarded by a
        # deleted copy's tombstone can land back on the origin itself
        # (page migrated home), where the response completes locally.
        self._finish_read(origin, xid, value)

    def _forward_read(self, msg: Message) -> None:
        """Pass a read request on to its page's master copy."""
        addr = msg.addr
        master = self._master_of(addr.page)
        origin = msg.origin
        xid = msg.xid
        self.fabric.release(msg)
        self._emit(
            _READ_REQ, master.node, master.word(addr.offset), 0, None, 0,
            origin, xid,
        )

    def _finish_read(self, origin: int, xid: int, value: int) -> None:
        if origin == self.node_id:
            waiter = self._read_waiters.pop(xid, None)
            if waiter is not None:
                waiter(value)
        else:
            self._emit(
                _READ_RESP, origin, None, value, None, 0, -1, xid
            )

    def _master_of(self, page: int) -> PhysPage:
        """The master copy of local page ``page`` (request routing)."""
        return self.tables.master_of(page)

    def _receive_write_req(self, msg: Message) -> None:
        addr = msg.addr
        assert addr is not None
        master = self._master_of(addr.page)
        offset = addr.offset
        value = msg.value
        origin = msg.origin
        xid = msg.xid
        self.fabric.release(msg)
        if master.node == self.node_id:
            self._work(
                self.params.cm_write_cycles,
                partial(
                    self._apply_at_master,
                    master.page,
                    [(offset, value)],
                    origin,
                    xid,
                    None,
                ),
            )
        else:
            self.counters.writes_forwarded += 1
            self._work(
                self.params.cm_forward_cycles,
                partial(
                    self._emit,
                    _WRITE_REQ,
                    master.node,
                    master.word(offset),
                    value,
                    None,
                    0,
                    origin,
                    xid,
                ),
            )

    def _receive_rmw_req(self, msg: Message) -> None:
        addr = msg.addr
        op = msg.op
        assert addr is not None and op is not None
        master = self._master_of(addr.page)
        offset = addr.offset
        operand = msg.operand
        origin = msg.origin
        xid = msg.xid
        self.fabric.release(msg)
        if master.node == self.node_id:
            self._work(
                self._op_cycles[op.idx],
                partial(
                    self._execute_rmw,
                    op,
                    master.word(offset),
                    operand,
                    origin,
                    xid,
                ),
            )
        else:
            self._work(
                self.params.cm_forward_cycles,
                partial(
                    self._emit,
                    _RMW_REQ,
                    master.node,
                    master.word(offset),
                    0,
                    op,
                    operand,
                    origin,
                    xid,
                ),
            )

    def _apply_update(self, msg: Message) -> None:
        addr = msg.addr
        assert addr is not None
        page = addr.page
        writes = msg.writes
        origin = msg.origin
        xid = msg.xid
        op = msg.op
        try:
            self._write_words(page, writes)
            self.counters.updates_applied += 1
        except AddressError:
            # This copy was live-deleted and its frame reclaimed while
            # the update crossed the mesh; the copy is out of the list,
            # so there is nothing local to keep coherent — but the
            # chain must still run to completion, so fall through to
            # the forwarding step using the tombstone next pointer.
            pass
        nxt = self.tables.next_of(page)
        self.fabric.release(msg)
        if nxt is None:
            self._complete_chain(origin, xid, op)
        else:
            # The forwarded message reuses the writes list (rebound, never
            # mutated, so sharing it down the chain is safe).
            self._emit(
                _UPDATE,
                nxt.node,
                nxt.word(addr.offset),
                0,
                op,
                0,
                origin,
                xid,
                writes,
            )

    def _serve_shootdown(self, msg: Message) -> None:
        """OS interrupt: drop the mapping of virtual page ``msg.value``,
        flush the TLB entry, and acknowledge the initiator."""
        self.shootdown_hook(msg.value)
        self._emit(
            _TLB_SHOOTDOWN_ACK,
            msg.origin,
            None,
            msg.value,
            None,
            0,
            -1,
            msg.xid,
        )

    def _serve_page_copy(self, msg: Message) -> None:
        """Stream one chunk of a page back to a replicating node.

        Under the invalidate protocol some of this copy's words may be
        stale; their offsets ride along so the new copy marks them
        invalid too instead of serving the stale data as fresh.
        """
        assert msg.addr is not None
        start = msg.value
        length = msg.operand
        frame = self.memory.snapshot_page(msg.addr.page)
        chunk = frame[start : start + length]
        invalid = self._invalid_words.get(msg.addr.page, set())
        stale = [
            (offset, 0)
            for offset in range(start, start + len(chunk))
            if offset in invalid
        ]
        self._emit(
            _PAGE_COPY_DATA,
            msg.origin,
            msg.addr,
            start,
            None,
            0,
            -1,
            msg.xid,
            stale,
            False,
            chunk,
        )

    # ------------------------------------------------------------------
    @property
    def outstanding_chains(self) -> int:
        """In-flight delayed-operation update chains (diagnostics)."""
        return self._rmw_chains

    def idle(self) -> bool:
        """True when this CM has no in-flight protocol state."""
        return (
            self.pending.is_empty
            and self._rmw_chains == 0
            and not self._read_waiters
            and not self._rmw_tokens
            and (self._reliable is None or self._reliable.idle())
        )
