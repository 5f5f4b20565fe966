"""The mesh fabric: delivers coherence-manager messages with timing.

The fabric owns the topology and the link timing model, preserves
point-to-point FIFO order (a property of dimension-order wormhole routing
that the copy-list update protocol depends on), and keeps machine-wide
traffic statistics.

This module sits on the simulator's hottest path — every protocol
message of every benchmark crosses ``Fabric.send`` — so it avoids
per-message allocation beyond one slotted delivery event: routes are
walked arithmetically (O(1) per hop, no materialized link lists — see
``LinkModel.traverse_steps``), per-pair state is a single FIFO-floor
integer, receivers are resolved by list index, and the tracing hook
costs a single ``is None`` test when disabled.

An optional :class:`~repro.network.faults.FaultPlan` turns the perfect
mesh into an unreliable one: installed with :meth:`Fabric.install_faults`
(usually via ``PlusMachine.install_faults``, which also arms the
recovery layer in every coherence manager), it is consulted once per
send and may drop, duplicate, or delay-and-reorder the message, or take
whole links down transiently.  With no plan installed the send path is
exactly the lossless fast path — zero extra messages, zero timing
change, one ``is None`` test.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.params import TimingParams
from repro.errors import ConfigError
from repro.network.faults import FaultPlan
from repro.network.message import Message, MsgKind, N_KINDS
from repro.network.router import LinkModel
from repro.network.topology import Topology
from repro.sim.engine import Engine

Receiver = Callable[[Message], None]


class FabricStats:
    """Machine-wide network traffic counters.

    Every send attempt is counted inline by the fabric's send paths
    (lossless and faulty); a retransmission
    counts like any other send.  Sends the fault plan swallows still
    count as wire traffic (the sender paid for them); the fault counters
    then say what the wire did on top:

    * ``drops`` — messages lost (random drops, outages, blackholes).
    * ``dups`` — extra deliveries the wire created.
    * ``retransmits`` — sends that were recovery-layer retransmissions.
    * ``recovered`` — messages acknowledged only after retransmission.
    """

    __slots__ = (
        "_kind_counts",
        "total_messages",
        "total_hops",
        "total_bytes",
        "drops",
        "dups",
        "retransmits",
        "recovered",
    )

    def __init__(self) -> None:
        #: Per-kind counts, list-indexed by ``MsgKind.idx`` (enum-keyed
        #: dict hashing is a Python-level call; this is the per-send path).
        self._kind_counts: List[int] = [0] * N_KINDS
        self.total_messages = 0
        self.total_hops = 0
        self.total_bytes = 0
        self.drops = 0
        self.dups = 0
        self.retransmits = 0
        self.recovered = 0

    @property
    def messages_by_kind(self) -> Dict[MsgKind, int]:
        """Message count per kind (built on access from the dense counts)."""
        counts = self._kind_counts
        return {k: counts[k.idx] for k in MsgKind}

    @property
    def mean_hops(self) -> float:
        if not self.total_messages:
            return 0.0
        return self.total_hops / self.total_messages

    def count(self, *kinds: MsgKind) -> int:
        """Total messages across the given kinds."""
        counts = self._kind_counts
        return sum(counts[k.idx] for k in kinds)


class _Delivery:
    """One scheduled message delivery (the fabric's only per-send event).

    Delivery events are recycled through a per-fabric free list: a fired
    delivery returns itself to the pool *before* invoking the receiver
    (its fields are already copied to locals, so the receiver scheduling
    new sends can reuse the object immediately).  Unlike the message
    pool this one never needs disabling — a delivery is consumed the
    moment it fires and nothing retains it.
    """

    __slots__ = ("receiver", "msg", "pool")

    def __init__(
        self, receiver: Receiver, msg: Message, pool: "List[_Delivery]"
    ) -> None:
        self.receiver = receiver
        self.msg = msg
        self.pool = pool

    def __call__(self) -> None:
        receiver = self.receiver
        msg = self.msg
        self.pool.append(self)
        receiver(msg)


class Fabric:
    """Routes and times messages between coherence managers."""

    def __init__(
        self,
        engine: Engine,
        mesh: Topology,
        params: TimingParams,
    ) -> None:
        self.engine = engine
        self.mesh = mesh
        self.params = params
        self.links = LinkModel(params, mesh)
        self.stats = FabricStats()
        #: Receiver per node id, resolved once at attach time.
        self._receivers: List[Optional[Receiver]] = [None] * mesh.n_nodes
        #: Per-(src, dst) point-to-point FIFO floors, keyed by the dense
        #: pair index ``src * n_positions + dst``: the earliest cycle the
        #: next same-pair message may be delivered (one past the last
        #: delivery).  This — two ints per *communicating* pair — is all
        #: the per-pair state left; routes are walked arithmetically.
        self._floors: Dict[int, int] = {}
        self._n_positions = mesh.n_positions
        #: Installed :class:`~repro.stats.trace.ProtocolTrace`, or None.
        #: When None (the default) tracing costs one ``is None`` test.
        self._trace = None
        #: Installed :class:`~repro.network.faults.FaultPlan`, or None
        #: for the paper's lossless mesh.
        self.fault_plan: Optional[FaultPlan] = None
        #: Next message id; ids are stamped at first injection so they
        #: are a property of this fabric's traffic alone (a process that
        #: runs many simulations — a sweep worker — reproduces the same
        #: ids for the same run regardless of what ran before it).
        self._next_msg_id = 0
        #: Free lists for recycled delivery events and Message objects.
        #: Message pooling trades allocation for reuse, which is only
        #: legal while nothing cares about object identity: a trace
        #: holds message references until materialized, and a fault plan
        #: distinguishes retransmissions from duplicates by ``msg_id`` —
        #: so ``_pooling`` is false whenever either is installed (see
        #: :meth:`_refresh_pooling`).  Release points (in the coherence
        #: manager) check the flag too, so a message recorded by a trace
        #: is never recycled out from under it.
        self._delivery_pool: List[_Delivery] = []
        self._msg_pool: List[Message] = []
        self._pooling = True

    def _refresh_pooling(self) -> None:
        """Re-derive the message-pooling gate from trace/fault state."""
        self._pooling = self._trace is None and self.fault_plan is None

    def release(self, msg: Message) -> None:
        """Return a dead message to the free list (identity-safe only:
        callers must hold the last live reference).  No-op while pooling
        is disabled."""
        if self._pooling:
            self._msg_pool.append(msg)

    # ------------------------------------------------------------------
    def attach(self, node: int, receiver: Receiver) -> None:
        """Register the coherence manager that receives traffic for ``node``."""
        if not 0 <= node < len(self._receivers):
            raise ConfigError(f"node {node} outside this fabric's mesh")
        if self._receivers[node] is not None:
            raise ConfigError(f"node {node} already attached to fabric")
        self._receivers[node] = receiver

    def rebind(self, node: int, receiver: Receiver) -> None:
        """Swap the receiver of an already-attached node.

        Used when a coherence manager arms its recovery layer: the
        lossless fast path delivers straight into protocol dispatch, and
        arming inserts the wire-side receive in front of it.  Only legal
        before traffic flows, for the same reason as
        :meth:`install_faults`.
        """
        if self._receivers[node] is None:
            raise ConfigError(f"node {node} not attached to fabric")
        if self.stats.total_messages:
            raise ConfigError("cannot rebind a receiver after traffic")
        self._receivers[node] = receiver

    # ------------------------------------------------------------------
    def install_faults(self, plan: FaultPlan) -> FaultPlan:
        """Make the mesh unreliable according to ``plan``.

        Must happen before any traffic flows: the recovery layer's
        sequence numbering has to cover a connection from its first
        message.  Use ``PlusMachine.install_faults``, which also enables
        the reliable channels of every coherence manager — a fault plan
        without the recovery layer loses messages with no retry, which
        is only useful for testing the watchdog.
        """
        if self.stats.total_messages:
            raise ConfigError(
                "cannot install a fault plan after traffic has flowed"
            )
        plan.bind(self.mesh)
        self.fault_plan = plan
        self._refresh_pooling()
        return plan

    # ------------------------------------------------------------------
    def send(self, msg: Message) -> int:
        """Inject ``msg`` now; returns its (scheduled) delivery time.

        With a fault plan installed the return value is the primary
        copy's delivery time, or -1 when the wire lost the message.
        """
        dst = msg.dst
        if msg.src == dst:
            raise ConfigError(f"fabric cannot route a self-message: {msg}")
        receiver = (
            self._receivers[dst] if 0 <= dst < len(self._receivers) else None
        )
        if receiver is None:
            raise ConfigError(f"no receiver attached for node {dst}")
        src = msg.src
        floor_key = src * self._n_positions + dst

        if msg.msg_id < 0:
            # First injection stamps the fabric-local identity; a
            # retransmission re-sends the same object and keeps its id.
            msg.msg_id = self._next_msg_id
            self._next_msg_id += 1

        if self.fault_plan is not None:
            return self._send_routed(msg, receiver, src, dst, floor_key)

        engine = self.engine
        now = engine._now
        size = msg.size_bytes
        # Dimension-order wormhole routing delivers same-pair messages in
        # injection order; the link model enforces that floor explicitly
        # (and charges it to the final link) so protocol ordering never
        # depends on floating details of the timing model.
        steps = self.mesh.route_steps(src, dst)
        floors = self._floors
        arrive = self.links.traverse_steps(
            src, steps, now, size, not_before=floors.get(floor_key, 0)
        )
        floors[floor_key] = arrive + 1

        if self._trace is not None:
            self._trace.record(now, msg, arrive)

        stats = self.stats
        stats._kind_counts[msg.kind.idx] += 1
        stats.total_messages += 1
        stats.total_hops += steps[0] + steps[2]
        stats.total_bytes += size
        pool = self._delivery_pool
        if pool:
            delivery = pool.pop()
            delivery.receiver = receiver
            delivery.msg = msg
        else:
            delivery = _Delivery(receiver, msg, pool)
        # Inlined near-lane fast path of ``Engine.at`` (arrive >= now
        # always; link latencies are small, so nearly every delivery
        # lands inside the calendar window).
        if arrive - now < 512 and engine._tie_rng is None:  # Engine.BUCKETS
            engine._buckets[arrive & 511].append(delivery)
            engine._near += 1
        else:
            engine.at(arrive, delivery)
        return arrive

    def _send_routed(
        self,
        msg: Message,
        receiver: Receiver,
        src: int,
        dst: int,
        floor_key: int,
    ) -> int:
        """The faulty send body (the lossless fast path is inlined in
        :meth:`send`).  Route, account, consult the plan, then deliver
        0, 1 or 2 copies.  Per-delivery jitter lands *outside* the FIFO
        floor, so same-pair messages can reorder within the jitter bound
        — the sequence numbers of the reliable sublayer put them back in
        order.

        The route is walked arithmetically, exactly as on the fast path:
        the plan judges outages by link id along the step plan, and only
        a delivered message occupies links.
        """
        now = self.engine._now
        size = msg.size_bytes
        steps = self.mesh.route_steps(src, dst)
        stats = self.stats
        stats._kind_counts[msg.kind.idx] += 1
        stats.total_messages += 1
        stats.total_hops += steps[0] + steps[2]
        stats.total_bytes += size
        fate, delays = self.fault_plan.judge(msg, now, src, steps)
        if not delays:
            stats.drops += 1
            if self._trace is not None:
                self._trace.record(now, msg, -1, fate=fate)
            return -1
        floors = self._floors
        arrive = self.links.traverse_steps(
            src, steps, now, size, not_before=floors.get(floor_key, 0)
        )
        floors[floor_key] = arrive + 1
        primary = arrive + delays[0]
        if len(delays) > 1:
            stats.dups += 1
        if self._trace is not None:
            self._trace.record(now, msg, primary, fate=fate)
        pool = self._delivery_pool
        for delay in delays:
            if pool:
                delivery = pool.pop()
                delivery.receiver = receiver
                delivery.msg = msg
            else:
                delivery = _Delivery(receiver, msg, pool)
            self.engine.at(arrive + delay, delivery)
        return primary

    # ------------------------------------------------------------------
    def note_applied(self, msg: Message) -> None:
        """Recovery-layer hook: ``msg`` was just accepted (exactly once,
        in order) and handed to the protocol.  Forwards to the installed
        trace so the oracle can separate wire traffic from application."""
        if self._trace is not None:
            self._trace.note_applied(self.engine.now, msg)

    # ------------------------------------------------------------------
    def hops(self, a: int, b: int) -> int:
        """Manhattan distance between two nodes."""
        return self.mesh.hops(a, b)
