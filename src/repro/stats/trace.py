"""Protocol tracing: record every fabric message for inspection.

A :class:`ProtocolTrace` attached to a machine's fabric records one
entry per message send.  Tests use it to assert protocol properties
(writes reach the master first, updates walk the copy-list in order);
users can dump a readable transcript of a run's coherence traffic; and
the coherence oracle (:mod:`repro.check.oracle`) replays a full capture
against a sequential reference model.

Each entry carries both the *send* time and the *scheduled arrival*
time, the carried word writes, the operation code of delayed-operation
chains and the ``chain_done`` flag — enough to reconstruct every
write/RMW transaction off-line.

Under a fault plan the capture separates the *wire* from the
*application*: every send attempt is recorded with its ``fate`` (sent,
sent+dup, drop, outage) and the message's reliable-layer sequence
number, and the recovery layer reports each message it accepts through
:meth:`ProtocolTrace.note_applied` — so a retransmitted update shows up
as several wire entries but exactly one application, which is what the
coherence oracle checks.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.params import OpCode
from repro.network.message import Message, MsgKind


class TraceEntry(NamedTuple):
    """One recorded message send (immutable; ``_replace`` copies one)."""

    time: int
    kind: MsgKind
    src: int
    dst: int
    page: Optional[int]
    offset: Optional[int]
    origin: int
    xid: int
    value: int
    #: Cycle the fabric scheduled the delivery for (send time plus
    #: routing, contention and FIFO-ordering delays).
    arrive: int = -1
    #: Operation code for delayed-operation chains (None for plain writes).
    op: Optional[OpCode] = None
    #: Word writes (page offset, value) carried by UPDATE/INVALIDATE.
    writes: Tuple[Tuple[int, int], ...] = ()
    #: RMW_RESP flag: no copy-list updates were generated.
    chain_done: bool = False
    #: Reliable-layer sequence number (-1 when unsequenced).
    seq: int = -1
    #: Identity of the Message object; retransmissions of one logical
    #: message share it, which is how the checkers tell a wire-level
    #: retransmit from a protocol-level duplicate.
    msg_id: int = -1
    #: What the wire did: "sent", "sent+dup", "drop" or "outage".
    fate: str = "sent"

    def describe(self) -> str:
        where = (
            f" p{self.page}+{self.offset}" if self.page is not None else ""
        )
        what = f" op={self.op.value}" if self.op is not None else ""
        seq = f" seq={self.seq}" if self.seq >= 0 else ""
        fate = f" [{self.fate}]" if self.fate != "sent" else ""
        return (
            f"[{self.time:>8}->{self.arrive:>8}] {self.kind.value:<14} "
            f"{self.src}->{self.dst}{where} origin={self.origin} "
            f"xid={self.xid}{what}{seq}{fate}"
        )


class ProtocolTrace:
    """Attach with :meth:`install`; entries accumulate per send.

    The fabric carries a single trace slot that its send path checks with
    one ``is None`` test, so tracing costs nothing while disabled.
    Installing is idempotent (re-installing the same trace is a no-op
    rather than double-recording), and :meth:`uninstall` detaches cleanly.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        self.capacity = capacity
        #: Raw per-send records ``(time, msg, arrive, fate)`` not yet
        #: materialized into :class:`TraceEntry` objects.  Recording is
        #: the hot path (the check/stress harness traces every send), so
        #: it appends one small tuple holding the live ``Message``;
        #: :attr:`entries` converts lazily on first access.  Safe because
        #: message pooling is disabled while a trace is installed (object
        #: identity and field stability are guaranteed until
        #: :meth:`uninstall` materializes whatever is still raw) and
        #: because no sender mutates a message's fields after the send.
        self._raw: List[tuple] = []
        self._entries: List[TraceEntry] = []
        self._count = 0
        self.dropped = 0
        #: msg_id -> cycle the recovery layer accepted the message and
        #: handed it to the protocol (fault-injected runs only; empty on
        #: the lossless fast path).
        self.applied: Dict[int, int] = {}
        self._fabric = None

    # ------------------------------------------------------------------
    def install(self, machine) -> "ProtocolTrace":
        """Hook this trace into ``machine``'s fabric; returns self.

        Idempotent: installing an already-installed trace changes
        nothing.  Installing over a *different* trace replaces it (the
        fabric records into at most one trace at a time).
        """
        fabric = machine.fabric
        previous = fabric._trace
        if previous is self:
            return self
        if previous is not None:
            # The replaced trace loses its pooling protection the moment
            # it detaches; snapshot its raw records first.
            previous._materialize()
            previous._fabric = None
        fabric._trace = self
        self._fabric = fabric
        fabric._refresh_pooling()
        return self

    def uninstall(self) -> "ProtocolTrace":
        """Detach from the fabric; recorded entries are kept.

        Detaching re-enables the fabric's message pooling, after which
        recorded ``Message`` objects may be recycled — so any still-raw
        records are materialized into immutable entries here.
        """
        self._materialize()
        fabric = self._fabric
        if fabric is not None and fabric._trace is self:
            fabric._trace = None
            fabric._refresh_pooling()
        self._fabric = None
        return self

    @property
    def installed(self) -> bool:
        """True while this trace is the one the fabric records into."""
        fabric = self._fabric
        return fabric is not None and fabric._trace is self

    def record(
        self, time: int, msg: Message, arrive: int = -1, fate: str = "sent"
    ) -> None:
        if self._count >= self.capacity:
            self.dropped += 1
            return
        self._count += 1
        self._raw.append((time, msg, arrive, fate))

    def _materialize(self) -> None:
        """Convert pending raw records into :class:`TraceEntry` objects."""
        raw = self._raw
        if not raw:
            return
        # Swap the buffer out first: a strict monitor subclass may raise
        # from record() mid-iteration in code that then reads .entries.
        self._raw = []
        append = self._entries.append
        # One C-level tuple build per entry, all sixteen fields in order:
        # a faulty stress run materializes one entry per send, and the
        # generated ``TraceEntry.__new__`` takes twice as long.
        new = tuple.__new__
        for time, msg, arrive, fate in raw:
            addr = msg.addr
            append(
                new(
                    TraceEntry,
                    (
                        time,
                        msg.kind,
                        msg.src,
                        msg.dst,
                        addr.page if addr else None,
                        addr.offset if addr else None,
                        msg.origin,
                        msg.xid,
                        msg.value,
                        arrive,
                        msg.op,
                        tuple(msg.writes),
                        msg.chain_done,
                        msg.seq,
                        msg.msg_id,
                        fate,
                    ),
                )
            )

    @property
    def entries(self) -> List[TraceEntry]:
        """All recorded entries, materializing lazily on access.

        The returned list is the trace's own storage (do not mutate);
        it keeps growing as more messages are recorded.
        """
        if self._raw:
            self._materialize()
        return self._entries

    def note_applied(self, time: int, msg: Message) -> None:
        """The recovery layer accepted ``msg`` (exactly once, in order).

        Recorded per ``msg_id``; the first acceptance wins, and the
        oracle uses these times to order applications at each copy
        instead of the wire's (possibly retransmitted) arrival times.
        """
        self.applied.setdefault(msg.msg_id, time)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self.entries)

    def of_kind(self, *kinds: MsgKind) -> List[TraceEntry]:
        return [e for e in self.entries if e.kind in kinds]

    def between(self, src: int, dst: int) -> List[TraceEntry]:
        return [e for e in self.entries if e.src == src and e.dst == dst]

    def matching(
        self, predicate: Callable[[TraceEntry], bool]
    ) -> List[TraceEntry]:
        return [e for e in self.entries if predicate(e)]

    def transaction(self, xid: int, origin: int) -> List[TraceEntry]:
        """Every message belonging to one write/RMW transaction."""
        return [
            e
            for e in self.entries
            if e.xid == xid and e.origin == origin
        ]

    def tail(self, count: int = 8) -> List[str]:
        """The last ``count`` entries, formatted (error excerpts)."""
        return [e.describe() for e in self.entries[-count:]]

    def dump(self, entries: Optional[Iterable[TraceEntry]] = None) -> str:
        """Readable transcript (optionally of a filtered subset)."""
        return "\n".join(
            e.describe() for e in (entries if entries is not None else self)
        )
