"""The coherence oracle: replay a trace against a sequential model.

The paper's central claim is *general coherence*: every copy of a
replicated page converges, writes respect per-processor ordering at the
master, and delayed operations execute atomically with exactly-once
acknowledgement.  The simulator's unit tests exercise examples of those
properties; this oracle checks them against an **independent sequential
model** for any run whose fabric traffic was captured with a
:class:`~repro.stats.trace.ProtocolTrace`.

After a run has fully drained, :class:`CoherenceOracle` verifies:

1.  **Convergence** — all copies of every replicated page are
    word-identical (words a copy holds invalid under the invalidate
    protocol are exempt: their next read re-fetches from the master).
2.  **Copy-list walk** — every write/RMW update chain visits exactly the
    copy-list nodes, in list order, each exactly once (a skipped,
    repeated or reordered hop is reported with the chain transcript).
3.  **Exactly-once acknowledgement** — each chain ends in exactly one
    ack to its originator (or none when the chain tail *is* the
    originator), each remote RMW gets exactly one response, and the
    response's ``chain_done`` flag agrees with the observed updates.
4.  **Per-processor write order** — for one originator and one page,
    the master emits updates in issue (xid) order.
5.  **Read pairing** — every remote read request gets exactly one
    response, delivered to the requester.
6.  **Value replay** — a sequential model memory is rebuilt from the
    captured word writes (master applications in send order, copy
    applications in scheduled-arrival order, which point-to-point FIFO
    makes unambiguous) and compared word-for-word against the machine's
    actual memory.

The oracle assumes a *static* page layout.  Runs that replicate, migrate
or delete pages live (``PAGE_COPY``/``TLB`` traffic in the capture) get
the layout-independent checks only — convergence, acknowledgement
uniqueness and read pairing.

Fault-injected runs are checked against the **application** view of the
capture, not the raw wire: when the trace recorded recovery-layer
acceptances (:attr:`~repro.stats.trace.ProtocolTrace.applied`), the
oracle collapses each logical message to one entry — the first wire
send, with ``arrive`` replaced by the cycle the receiver actually
accepted and dispatched it — and ignores NET_ACKs and copies the wire
lost.  Every claim above must then hold *word for word* exactly as on a
lossless mesh: retransmission may repeat wire traffic, but application
stays exactly-once, in order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CoherenceViolation
from repro.network.message import MsgKind
from repro.stats.trace import ProtocolTrace, TraceEntry

_CHAIN_KINDS = (
    MsgKind.WRITE_REQ,
    MsgKind.UPDATE,
    MsgKind.INVALIDATE,
    MsgKind.WRITE_ACK,
    MsgKind.RMW_REQ,
    MsgKind.RMW_RESP,
)
_DYNAMIC_KINDS = (
    MsgKind.PAGE_COPY_REQ,
    MsgKind.PAGE_COPY_DATA,
    MsgKind.TLB_SHOOTDOWN,
    MsgKind.TLB_SHOOTDOWN_ACK,
)

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
_NET_ACK = MsgKind.NET_ACK


@dataclass(frozen=True)
class Violation:
    """One broken coherence property, with event context."""

    rule: str
    detail: str
    cycle: Optional[int] = None
    node: Optional[int] = None
    excerpt: Tuple[str, ...] = ()

    def describe(self) -> str:
        tags = []
        if self.cycle is not None:
            tags.append(f"cycle {self.cycle}")
        if self.node is not None:
            tags.append(f"node {self.node}")
        head = f"[{self.rule}] {self.detail}"
        if tags:
            head += f" ({', '.join(tags)})"
        lines = [head]
        lines.extend(f"    {line}" for line in self.excerpt)
        return "\n".join(lines)


@dataclass
class OracleReport:
    """Everything the oracle checked and everything it found."""

    violations: List[Violation] = field(default_factory=list)
    chains_checked: int = 0
    reads_checked: int = 0
    pages_compared: int = 0
    words_replayed: int = 0
    layout_static: bool = True
    #: True when the run crashed/restarted nodes: only the drain check
    #: ran (see :meth:`CoherenceOracle.check`); end-to-end correctness
    #: must come from an application invariant such as
    #: :func:`check_conservation`.
    crash_mode: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        scope = "" if self.layout_static else ", dynamic layout (reduced checks)"
        if self.crash_mode:
            scope = ", crash run (drain check only)"
        return (
            f"oracle: {state} — {self.chains_checked} chains, "
            f"{self.reads_checked} reads, {self.pages_compared} page "
            f"comparisons, {self.words_replayed} words replayed{scope}"
        )

    def raise_if_failed(self) -> None:
        """Raise :class:`CoherenceViolation` describing every finding."""
        if self.ok:
            return
        first = self.violations[0]
        body = "\n".join(v.describe() for v in self.violations)
        raise CoherenceViolation(
            f"{len(self.violations)} coherence violation(s):\n{body}",
            cycle=first.cycle,
            node=first.node,
            excerpt=first.excerpt,
        )


class CoherenceOracle:
    """Sequential reference model over one machine run's trace capture."""

    def __init__(self, machine, trace: ProtocolTrace) -> None:
        self.machine = machine
        self.trace = trace
        #: The entries the checks run over: the raw capture on a lossless
        #: run, or the exactly-once application view on a fault run (one
        #: entry per applied logical message, at its application time).
        self._entries = self._applied_view(trace)
        # Post-run layout: copy-list per virtual page and the reverse
        # (node, physical page) -> virtual page map.
        self._clists = {
            vpage: machine.os.copylist(vpage)
            for vpage in machine.os.known_vpages()
        }
        self._phys: Dict[Tuple[int, int], int] = {}
        for vpage, clist in self._clists.items():
            for copy in clist.copies:
                self._phys[(copy.node, copy.page)] = vpage

    # ------------------------------------------------------------------
    @staticmethod
    def _applied_view(trace: ProtocolTrace) -> List[TraceEntry]:
        """Collapse a faulty wire capture to its application stream.

        A lossless capture (``trace.applied`` empty) is used verbatim.
        Otherwise each logical message keeps one entry — its first wire
        send, re-timed to the cycle the recovery layer accepted it — and
        retransmissions, duplicates, lost copies and NET_ACKs vanish,
        which is exactly what the protocol saw.
        """
        applied = trace.applied
        if not applied:
            return list(trace.entries)
        entries: List[TraceEntry] = []
        seen = set()
        for e in trace:
            if e.kind is _NET_ACK or e.msg_id in seen:
                continue
            when = applied.get(e.msg_id)
            if when is None:
                continue  # the wire ate every copy; nothing was applied
            seen.add(e.msg_id)
            entries.append(e if e.arrive == when else e._replace(arrive=when))
        return entries

    # ------------------------------------------------------------------
    def check(self) -> OracleReport:
        """Run every check; returns the report (never raises)."""
        report = OracleReport()
        if self.trace.dropped:
            report.violations.append(
                Violation(
                    rule="capture",
                    detail=(
                        f"trace dropped {self.trace.dropped} entries; "
                        "raise ProtocolTrace(capacity=...) to replay this run"
                    ),
                )
            )
            return report
        if getattr(self.machine, "crash_log", None):
            # A run that crashed nodes legitimately breaks the wire-level
            # claims: chains sever mid-walk, flush completion doubles
            # acks, copies diverge during down windows, and reads may be
            # answered with fabricated values.  What *must* still hold is
            # that the machine drains — every surviving protocol actor
            # reaches quiescence.  End-to-end correctness under crashes
            # is an application property (see :func:`check_conservation`
            # and the ledger workload).
            report.crash_mode = True
            self._check_drained(report)
            return report
        report.layout_static = not any(
            e.kind in _DYNAMIC_KINDS for e in self._entries
        )
        self._check_drained(report)
        self._check_convergence(report)
        chains, reads = self._group_chains()
        for key, items in chains.items():
            report.chains_checked += 1
            if report.layout_static:
                self._check_chain_walk(key, items, report)
            self._check_acks(key, items, report)
        for key, items in reads.items():
            report.reads_checked += 1
            self._check_read(key, items, report)
        if report.layout_static:
            self._check_write_order(report)
            self._replay(report)
        return report

    # ------------------------------------------------------------------
    def _page_excerpt(self, vpage: int, count: int = 8) -> Tuple[str, ...]:
        clist = self._clists[vpage]
        spots = {(c.node, c.page) for c in clist.copies}
        touching = [
            e
            for e in self.trace
            if e.page is not None and (e.dst, e.page) in spots
        ]
        return tuple(e.describe() for e in touching[-count:])

    @staticmethod
    def _chain_excerpt(items: List[TraceEntry]) -> Tuple[str, ...]:
        return tuple(e.describe() for e in items[:12])

    # ------------------------------------------------------------------
    def _check_drained(self, report: OracleReport) -> None:
        engine = self.machine.engine
        if engine.pending_events:
            report.violations.append(
                Violation(
                    rule="drain",
                    detail=(
                        f"{engine.pending_events} events still scheduled; "
                        "the oracle needs a fully-drained run"
                    ),
                    cycle=engine.now,
                )
            )
        for node in self.machine.nodes:
            if not node.cm.idle():
                report.violations.append(
                    Violation(
                        rule="drain",
                        detail=(
                            f"coherence manager {node.node_id} still has "
                            f"in-flight state after the run "
                            f"(pending={len(node.cm.pending)}, "
                            f"chains={node.cm.outstanding_chains})"
                        ),
                        cycle=engine.now,
                        node=node.node_id,
                    )
                )

    # ------------------------------------------------------------------
    def _check_convergence(self, report: OracleReport) -> None:
        nodes = self.machine.nodes
        for vpage, clist in self._clists.items():
            copies = clist.copies
            if len(copies) < 2:
                continue
            report.pages_compared += 1
            master = copies[0]
            master_frame = nodes[master.node].memory.snapshot_page(master.page)
            for copy in copies[1:]:
                frame = nodes[copy.node].memory.snapshot_page(copy.page)
                invalid = nodes[copy.node].cm._invalid_words.get(
                    copy.page, ()
                )
                diffs = [
                    (off, master_frame[off], frame[off])
                    for off in range(len(master_frame))
                    if master_frame[off] != frame[off] and off not in invalid
                ]
                if diffs:
                    shown = ", ".join(
                        f"+{off}: master={m} copy={c}"
                        for off, m, c in diffs[:4]
                    )
                    more = f" (+{len(diffs) - 4} more)" if len(diffs) > 4 else ""
                    report.violations.append(
                        Violation(
                            rule="convergence",
                            detail=(
                                f"vpage {vpage}: copy on node {copy.node} "
                                f"diverged from master on node "
                                f"{master.node}: {shown}{more}"
                            ),
                            cycle=self.machine.engine.now,
                            node=copy.node,
                            excerpt=self._page_excerpt(vpage),
                        )
                    )

    # ------------------------------------------------------------------
    def _group_chains(self):
        """Bucket trace entries into write/RMW chains and read pairs.

        Write transaction ids come from the originator's pending-writes
        cache and RMW/read ids from its shared request counter, so
        ``(class, origin, xid)`` uniquely names a transaction.  Ack and
        response messages do not carry ``origin``; their destination *is*
        the originator.
        """
        chains: Dict[tuple, List[TraceEntry]] = defaultdict(list)
        reads: Dict[tuple, List[TraceEntry]] = defaultdict(list)
        for e in self._entries:
            kind = e.kind
            if kind is _READ_REQ:
                reads[(e.origin, e.xid)].append(e)
            elif kind is _READ_RESP:
                reads[(e.dst, e.xid)].append(e)
            elif kind in (_UPDATE, _INVALIDATE):
                cls = "w" if e.op is None else "r"
                chains[(cls, e.origin, e.xid)].append(e)
            elif kind is _WRITE_REQ:
                chains[("w", e.origin, e.xid)].append(e)
            elif kind is _RMW_REQ:
                chains[("r", e.origin, e.xid)].append(e)
            elif kind is _WRITE_ACK:
                cls = "w" if e.op is None else "r"
                chains[(cls, e.dst, e.xid)].append(e)
            elif kind is _RMW_RESP:
                chains[("r", e.dst, e.xid)].append(e)
        return chains, reads

    def _chain_layout(self, items: List[TraceEntry]):
        """(vpage, master node, expected non-master node path) or None."""
        for e in items:
            if e.kind in (_UPDATE, _INVALIDATE):
                vpage = self._phys.get((e.dst, e.page))
                if vpage is None:
                    return None
                clist = self._clists[vpage]
                return vpage, clist.master.node, clist.nodes[1:]
        for e in items:
            if e.kind in (_WRITE_REQ, _RMW_REQ):
                vpage = self._phys.get((e.dst, e.page))
                if vpage is not None:
                    clist = self._clists[vpage]
                    return vpage, clist.master.node, clist.nodes[1:]
        return None

    def _check_chain_walk(
        self, key: tuple, items: List[TraceEntry], report: OracleReport
    ) -> None:
        cls, origin, xid = key
        updates = [
            e
            for e in items
            if e.kind in (_UPDATE, _INVALIDATE)
        ]
        if not updates:
            return
        layout = self._chain_layout(items)
        if layout is None:
            return
        vpage, master_node, expected = layout
        observed = [e.dst for e in updates]
        hops_ok = (
            observed == expected
            and updates[0].src == master_node
            and all(
                updates[i].src == updates[i - 1].dst
                for i in range(1, len(updates))
            )
        )
        if not hops_ok:
            label = "write" if cls == "w" else "RMW"
            report.violations.append(
                Violation(
                    rule="copy-list-walk",
                    detail=(
                        f"{label} chain origin={origin} xid={xid} on vpage "
                        f"{vpage} visited nodes {observed} (from "
                        f"{[e.src for e in updates]}); the copy-list "
                        f"expects master {master_node} -> {expected}"
                    ),
                    cycle=updates[-1].time,
                    node=updates[-1].src,
                    excerpt=self._chain_excerpt(items),
                )
            )

    def _check_acks(
        self, key: tuple, items: List[TraceEntry], report: OracleReport
    ) -> None:
        cls, origin, xid = key
        updates = [
            e
            for e in items
            if e.kind in (_UPDATE, _INVALIDATE)
        ]
        acks = [e for e in items if e.kind is _WRITE_ACK]
        resps = [e for e in items if e.kind is _RMW_RESP]
        label = "write" if cls == "w" else "RMW"
        name = f"{label} chain origin={origin} xid={xid}"

        # Exactly-once acknowledgement, independent of layout knowledge.
        if len(acks) > 1:
            report.violations.append(
                Violation(
                    rule="ack-exactly-once",
                    detail=f"{name} acknowledged {len(acks)} times",
                    cycle=acks[-1].time,
                    node=acks[-1].src,
                    excerpt=self._chain_excerpt(items),
                )
            )
        if len(resps) > 1:
            report.violations.append(
                Violation(
                    rule="rmw-exactly-once",
                    detail=f"{name} got {len(resps)} responses",
                    cycle=resps[-1].time,
                    node=resps[-1].src,
                    excerpt=self._chain_excerpt(items),
                )
            )
        for ack in acks:
            if ack.dst != origin:
                report.violations.append(
                    Violation(
                        rule="ack-misrouted",
                        detail=(
                            f"{name}: ack delivered to node {ack.dst}, "
                            f"not originator {origin}"
                        ),
                        cycle=ack.time,
                        node=ack.src,
                        excerpt=self._chain_excerpt(items),
                    )
                )
        if resps and updates and resps[0].chain_done:
            report.violations.append(
                Violation(
                    rule="rmw-chain-done",
                    detail=(
                        f"{name}: response claimed chain_done but "
                        f"{len(updates)} update(s) were generated"
                    ),
                    cycle=resps[0].time,
                    node=resps[0].src,
                    excerpt=self._chain_excerpt(items),
                )
            )

        if not report.layout_static:
            return
        # With a static layout the expected ack count is exact.
        if updates:
            tail = updates[-1].dst
            expected = 0 if tail == origin else 1
        elif any(e.kind is _WRITE_REQ for e in items):
            expected = 1  # remote write to an unreplicated page
        else:
            return  # RMW with no memory mutation acknowledges via RMW_RESP
        if cls == "r" and not updates:
            return
        if len(acks) != expected:
            report.violations.append(
                Violation(
                    rule="ack-exactly-once",
                    detail=(
                        f"{name}: expected {expected} ack(s), "
                        f"observed {len(acks)}"
                    ),
                    cycle=items[-1].time,
                    node=items[-1].src,
                    excerpt=self._chain_excerpt(items),
                )
            )

    def _check_read(
        self, key: tuple, items: List[TraceEntry], report: OracleReport
    ) -> None:
        origin, xid = key
        reqs = [e for e in items if e.kind is _READ_REQ]
        resps = [e for e in items if e.kind is _READ_RESP]
        if len(resps) != 1 or not reqs or resps[0].dst != origin:
            report.violations.append(
                Violation(
                    rule="read-pairing",
                    detail=(
                        f"read origin={origin} xid={xid}: {len(reqs)} "
                        f"request(s), {len(resps)} response(s)"
                        + (
                            f", response went to node {resps[0].dst}"
                            if resps and resps[0].dst != origin
                            else ""
                        )
                    ),
                    cycle=items[-1].time,
                    node=items[-1].src,
                    excerpt=self._chain_excerpt(items),
                )
            )

    # ------------------------------------------------------------------
    def _check_write_order(self, report: OracleReport) -> None:
        """Per-processor write order at the master (weak ordering's floor).

        Pending-write transaction ids are allocated per originating node
        in issue order, so for one originator and one page, the master
        must emit update chains with strictly increasing xids.
        """
        last: Dict[Tuple[int, int], TraceEntry] = {}
        for e in self._entries:
            if e.kind not in (_UPDATE, _INVALIDATE):
                continue
            if e.op is not None:
                continue  # RMW ids come from a different counter
            vpage = self._phys.get((e.dst, e.page))
            if vpage is None or self._clists[vpage].master.node != e.src:
                continue
            key = (e.origin, vpage)
            prev = last.get(key)
            if prev is not None and e.xid <= prev.xid:
                report.violations.append(
                    Violation(
                        rule="write-order",
                        detail=(
                            f"master on node {e.src} emitted write xid "
                            f"{e.xid} from origin {e.origin} after xid "
                            f"{prev.xid} on vpage {vpage} (issue order "
                            "inverted)"
                        ),
                        cycle=e.time,
                        node=e.src,
                        excerpt=(prev.describe(), e.describe()),
                    )
                )
            last[key] = e

    # ------------------------------------------------------------------
    def _replay(self, report: OracleReport) -> None:
        """Rebuild every replicated page from the captured word writes.

        Every mutation of a replicated page is wire-visible: the master
        emits one UPDATE/INVALIDATE per application, in application
        order (the coherence manager is a serial server), and each copy
        applies incoming updates in arrival order (unambiguous, because
        all updates to one copy arrive over one FIFO pair from its
        copy-list predecessor).  Unreplicated pages mutate silently
        (local writes never touch the fabric), so they are skipped.
        """
        apply_events: Dict[Tuple[int, int], List[tuple]] = defaultdict(list)
        for idx, e in enumerate(self._entries):
            if e.kind not in (_UPDATE, _INVALIDATE):
                continue
            vpage = self._phys.get((e.dst, e.page))
            if vpage is None:
                continue
            clist = self._clists[vpage]
            master = clist.master
            if e.src == master.node:
                # The master applied these words before forwarding.
                apply_events[(master.node, master.page)].append(
                    ((e.time, idx), "write", e.writes)
                )
            op = "write" if e.kind is _UPDATE else "taint"
            apply_events[(e.dst, e.page)].append(((e.arrive, idx), op, e.writes))

        for (node, page), events in apply_events.items():
            events.sort(key=lambda ev: ev[0])
            model: Dict[int, int] = {}
            tainted: set = set()
            for _key, op, writes in events:
                for offset, value in writes:
                    if op == "write":
                        model[offset] = value
                        tainted.discard(offset)
                    else:
                        tainted.add(offset)
            memory = self.machine.nodes[node].memory
            for offset, value in model.items():
                if offset in tainted:
                    continue
                report.words_replayed += 1
                actual = memory.read(page, offset)
                if actual != value:
                    vpage = self._phys[(node, page)]
                    report.violations.append(
                        Violation(
                            rule="replay",
                            detail=(
                                f"vpage {vpage} offset {offset} on node "
                                f"{node}: memory holds {actual}, the "
                                f"sequential replay of its update stream "
                                f"gives {value}"
                            ),
                            cycle=self.machine.engine.now,
                            node=node,
                            excerpt=self._page_excerpt(vpage),
                        )
                    )


def verify(machine, trace: ProtocolTrace) -> OracleReport:
    """Check ``machine``'s drained run against ``trace``; raise on failure."""
    report = CoherenceOracle(machine, trace).check()
    report.raise_if_failed()
    return report


def check_conservation(
    observed: int, expected: int, *, what: str = "ledger total"
) -> None:
    """End-to-end conservation invariant for crash-mode workloads.

    Transactional workloads (the 2PC bank ledger in
    :mod:`repro.apps.ledger`) conserve a global quantity across every
    crash/restart interleaving — money moves between accounts but the
    total never changes.  This is the oracle check that survives
    crashes: it needs no wire trace, only the application's final
    state.  Raises :class:`CoherenceViolation` on mismatch.
    """
    if observed != expected:
        raise CoherenceViolation(
            f"[conservation] {what} is {observed}, expected {expected} "
            f"(drift {observed - expected:+d}) — a crash interleaving "
            f"created or destroyed value"
        )
