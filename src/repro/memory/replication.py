"""The replication layer: PLUS's operating-system view of memory.

Software is responsible for page placement and replication policies; the
hardware keeps copies coherent and performs the background page copy
(Section 2.4).  This module is that software: it owns the centralized
virtual-to-physical table (one :class:`~repro.core.copylist.CopyList` per
virtual page), orders copy-lists to keep the network path through the
copies short, projects the lists into every node's coherence-manager
tables, and drives page replication, deletion and migration.

Two replication paths exist:

* :meth:`ReplicationManager.replicate` — instantaneous, for machine
  set-up before the simulation runs (the paper's "memory layout requested
  by the programmer").
* :meth:`ReplicationManager.replicate_live` — the background hardware
  copy, streamed in chunks through the mesh and overlapped with ongoing
  writes to the same page; update-dirtied words are protected from being
  overwritten by stale copy data, preserving page integrity exactly as
  the paper claims.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import count
from typing import Callable, Dict, List, Optional

from repro.core.copylist import CopyList
from repro.errors import MappingError, ReplicationError
from repro.memory.address import PhysPage
from repro.network.message import Message, MsgKind

Callback = Callable[[], None]

#: Packed extent entry: ``home << _FLAT_SHIFT | first frame``.  Frame
#: ids stay under 2^20 (LocalMemory.max_frames), so 34 bits of headroom
#: leaves room for millions of nodes in the high bits.
_FLAT_SHIFT = 34
_FLAT_MASK = (1 << _FLAT_SHIFT) - 1


class ReplicationManager:
    """Central page directory plus replication/migration machinery.

    The directory is *extent-first*: an unreplicated page is described
    by the extent it was mapped in — one ``(first vpage, home << 34 |
    first frame)`` pair per fresh run of frames that
    :meth:`create_pages` maps, and one per recycled frame — so a page
    costs no :class:`CopyList`, no
    :class:`~repro.memory.address.PhysPage`, no CM-table entries (the
    tables treat unregistered live frames as implicitly self-mastered)
    and not even a directory slot of its own.  A page is *materialized*
    exactly when it has a real CopyList in ``_copylists``; that happens
    only when the replication machinery first touches it, and then the
    CopyList shadows its extent.  Everything that only *reads* placement
    goes through the read-only accessors (:meth:`master_copy`,
    :meth:`copies_of`, :meth:`copy_on_node`) and never materializes.
    This is what lets a 1,024-node machine map a million pages with one
    extent per segment instead of a million directory entries.
    """

    def __init__(self, machine) -> None:
        # ``machine`` is the PlusMachine; typed loosely to avoid an import
        # cycle.  Uses: .nodes (list of Node), .mesh, .fabric, .engine,
        # .params.
        self._machine = machine
        #: Extents, ascending: vpage ``v`` with ``_starts[i] <= v <
        #: _starts[i + 1]`` packs to ``_packed[i] + v - _starts[i]``.
        self._starts: List[int] = []
        self._packed: List[int] = []
        #: Virtual pages are numbered densely: the next one to map.
        self._n_vpages = 0
        #: Materialized copy-lists only (replicated or once-replicated).
        self._copylists: Dict[int, CopyList] = {}
        self._copy_xids = count()
        self.live_copies_started = 0
        self.live_copies_finished = 0

    # ------------------------------------------------------------------
    # Page directory.
    # ------------------------------------------------------------------
    def _flat_copy(self, vpage: int) -> PhysPage:
        """The extent-recorded copy of ``vpage`` (materialized or not)."""
        if not 0 <= vpage < self._n_vpages:
            raise MappingError(f"virtual page {vpage} does not exist")
        i = bisect_right(self._starts, vpage) - 1
        packed = self._packed[i] + vpage - self._starts[i]
        return PhysPage(packed >> _FLAT_SHIFT, packed & _FLAT_MASK)

    def _materialize(self, vpage: int) -> CopyList:
        """Promote a flat page to a real CopyList (mutation pending).

        The master's CM-table entry is registered explicitly at the same
        moment, replacing its implicit self-mastery with identical
        values, so the hardware view is unchanged.
        """
        master = self._flat_copy(vpage)
        clist = CopyList(vpage, master)
        self._copylists[vpage] = clist
        self._machine.nodes[master.node].cm.tables.register(
            master.page, master, None
        )
        return clist

    def copylist(self, vpage: int) -> CopyList:
        """The copy-list of ``vpage`` (raises MappingError if unknown).

        Materializes a flat page's CopyList: callers are the replication
        machinery and inspection paths that want the full object.  Pure
        placement reads should prefer the read-only accessors below.
        """
        clist = self._copylists.get(vpage)
        if clist is not None:
            return clist
        return self._materialize(vpage)

    def known_vpages(self) -> range:
        return range(self._n_vpages)

    # -- read-only placement accessors (never materialize) -------------
    def master_copy(self, vpage: int) -> PhysPage:
        """The master copy of ``vpage`` without materializing it."""
        clist = self._copylists.get(vpage)
        if clist is not None:
            return clist.master
        return self._flat_copy(vpage)

    def copies_of(self, vpage: int) -> List[PhysPage]:
        """All copies, master first, without materializing."""
        clist = self._copylists.get(vpage)
        if clist is not None:
            return clist.copies
        return [self._flat_copy(vpage)]

    def copy_on_node(self, vpage: int, node_id: int) -> Optional[PhysPage]:
        """The copy held by ``node_id``, or None, without materializing."""
        clist = self._copylists.get(vpage)
        if clist is not None:
            return clist.copy_on(node_id)
        copy = self._flat_copy(vpage)
        return copy if copy.node == node_id else None

    def copy_count(self, vpage: int) -> int:
        """Number of copies of ``vpage`` without materializing."""
        clist = self._copylists.get(vpage)
        if clist is not None:
            return len(clist)
        self._flat_copy(vpage)  # MappingError for an unknown vpage
        return 1

    def resolve(self, node_id: int, vpage: int) -> PhysPage:
        """Central-table lookup: the copy closest to ``node_id``.

        This is the resolver page tables call on a local-table miss.
        """
        clist = self._copylists.get(vpage)
        if clist is None:
            # Flat page: the sole copy is the answer for every asker.
            return self._flat_copy(vpage)
        own = clist.copy_on(node_id)
        if own is not None:
            return own
        nearest_node = self._machine.mesh.nearest_to(node_id, clist.nodes)
        copy = clist.copy_on(nearest_node)
        assert copy is not None
        return copy

    # ------------------------------------------------------------------
    # Page creation.
    # ------------------------------------------------------------------
    def create_pages(self, home: int, n: int) -> range:
        """Create ``n`` unreplicated pages mastered on node ``home``.

        Returns their virtual page numbers, a contiguous run.  The frames
        come from one bulk allocation; each recycled frame maps as a
        one-page extent and the fresh run as one extent, so mapping a
        segment costs O(recycled frames) work whatever its size.
        ``tables.forget`` clears any forwarding tombstone left on a
        recycled frame id so it cannot shadow the new page; never-used
        ids have no table entries to clear.
        """
        node = self._machine.nodes[home]
        recycled, fresh = node.memory.allocate_frames(n)
        first = self._n_vpages
        tag = home << _FLAT_SHIFT
        forget = node.cm.tables.forget
        starts, packed = self._starts, self._packed
        for vpage, ppage in enumerate(recycled, first):
            forget(ppage)
            starts.append(vpage)
            packed.append(tag | ppage)
        if fresh:
            starts.append(first + len(recycled))
            packed.append(tag | fresh.start)
        self._n_vpages = first + n
        return range(first, self._n_vpages)

    def create_page(self, home: int) -> int:
        """Create one unreplicated page mastered on node ``home``."""
        return self.create_pages(home, 1)[0]

    # ------------------------------------------------------------------
    # Replication.
    # ------------------------------------------------------------------
    def _insertion_predecessor(self, clist: CopyList, node_id: int) -> PhysPage:
        """Pick the existing copy to splice the new one after.

        The kernel orders the copy-list to minimise the network path
        through all the copies; this greedy rule picks the position that
        adds the least path length (the master cannot be displaced).
        """
        mesh = self._machine.mesh
        copies = clist.copies
        best = copies[0]
        best_delta = None
        for i, pred in enumerate(copies):
            succ = copies[i + 1] if i + 1 < len(copies) else None
            if succ is None:
                delta = mesh.hops(pred.node, node_id)
            else:
                delta = (
                    mesh.hops(pred.node, node_id)
                    + mesh.hops(node_id, succ.node)
                    - mesh.hops(pred.node, succ.node)
                )
            if best_delta is None or delta < best_delta:
                best, best_delta = pred, delta
        return best

    def _rebuild_tables(self, vpage: int) -> None:
        """Re-project a copy-list into every holder's CM tables."""
        clist = self.copylist(vpage)
        copies = clist.copies
        master = copies[0]
        for i, copy in enumerate(copies):
            nxt = copies[i + 1] if i + 1 < len(copies) else None
            self._machine.nodes[copy.node].cm.tables.register(
                copy.page, master, nxt
            )

    def _predecessor_copy(
        self, clist: CopyList, node_id: int, after: Optional[int]
    ) -> PhysPage:
        if after is None:
            return self._insertion_predecessor(clist, node_id)
        pred = clist.copy_on(after)
        if pred is None:
            raise ReplicationError(
                f"cannot insert after node {after}: it holds no copy of "
                f"vpage {clist.vpage}"
            )
        return pred

    def replicate(
        self, vpage: int, node_id: int, after: Optional[int] = None
    ) -> PhysPage:
        """Instantly create a copy of ``vpage`` on ``node_id``.

        Intended for machine set-up before the simulation starts: the
        data is copied without simulated time passing.  During a run use
        :meth:`replicate_live` instead.  ``after`` pins the insertion
        point (the node id of the desired predecessor); by default the
        kernel's path-minimising heuristic chooses it.
        """
        clist = self.copylist(vpage)
        if node_id in clist:
            raise ReplicationError(
                f"node {node_id} already holds a copy of vpage {vpage}"
            )
        pred = self._predecessor_copy(clist, node_id, after)
        node = self._machine.nodes[node_id]
        ppage = node.memory.allocate_frame()
        copy = PhysPage(node_id, ppage)
        clist.insert_after(pred, copy)
        source = self._machine.nodes[pred.node].memory.snapshot_page(pred.page)
        node.memory.load_page(ppage, source)
        self._rebuild_tables(vpage)
        node.page_table.install(vpage, copy)
        return copy

    def replicate_live(
        self,
        vpage: int,
        node_id: int,
        on_done: Optional[Callback] = None,
        after: Optional[int] = None,
    ) -> PhysPage:
        """Start a background hardware page copy onto ``node_id``.

        The new copy is first spliced into the copy-list (so it receives
        updates immediately), then the contents stream from the previous
        copy in chunks.  Words dirtied by updates during the transfer are
        never overwritten by stale chunk data.  ``on_done`` fires, and the
        node's mapping switches to the local copy, once the whole page has
        been written.
        """
        clist = self.copylist(vpage)
        if node_id in clist:
            raise ReplicationError(
                f"node {node_id} already holds a copy of vpage {vpage}"
            )
        machine = self._machine
        pred = self._predecessor_copy(clist, node_id, after)
        node = machine.nodes[node_id]
        ppage = node.memory.allocate_frame()
        copy = PhysPage(node_id, ppage)
        clist.insert_after(pred, copy)
        self._rebuild_tables(vpage)

        cm = node.cm
        cm.start_page_copy(ppage)
        xid = next(self._copy_xids)
        chunk = machine.params.page_copy_chunk_words
        page_words = machine.params.page_words
        self.live_copies_started += 1

        def request(start: int) -> None:
            # Through the CM's outgoing stack (not raw fabric.send) so
            # the request is retransmitted if an unreliable mesh eats it.
            cm.transmit(
                Message(
                    kind=MsgKind.PAGE_COPY_REQ,
                    src=node_id,
                    dst=pred.node,
                    addr=pred.word(0),
                    value=start,
                    operand=min(chunk, page_words - start),
                    origin=node_id,
                    xid=xid,
                )
            )

        def on_data(msg: Message) -> None:
            cm.apply_copy_words(ppage, msg.value, msg.words, stale=msg.writes)
            nxt = msg.value + len(msg.words)
            if nxt < page_words:
                request(nxt)
            else:
                cm.finish_page_copy(ppage)
                cm.unregister_copy_handler(xid)
                node.page_table.install(vpage, copy)
                self.live_copies_finished += 1
                if on_done is not None:
                    on_done()

        cm.register_copy_handler(xid, on_data)
        request(0)
        return copy

    # ------------------------------------------------------------------
    # Deletion, promotion, migration.
    # ------------------------------------------------------------------
    def delete_copy(self, vpage: int, node_id: int) -> None:
        """Delete the copy held by ``node_id``.

        Like removing a page in a paging OS: every node mapping this copy
        invalidates its translation and will lazily re-map to another
        copy.  The caller must ensure no writes are in flight to the page
        (the paper's kernel quiesces the page the same way).
        """
        clist = self.copylist(vpage)
        copy = clist.copy_on(node_id)
        if copy is None:
            raise ReplicationError(
                f"node {node_id} holds no copy of vpage {vpage}"
            )
        clist.remove(copy)  # refuses to drop the master while copies exist
        machine = self._machine
        machine.nodes[node_id].cm.tables.unregister(copy.page)
        machine.nodes[node_id].memory.free_frame(copy.page)
        self._rebuild_tables(vpage)
        for node in machine.nodes:
            if node.page_table.mapping_of(vpage) == copy:
                node.page_table.invalidate(vpage)

    def delete_copy_live(
        self,
        vpage: int,
        node_id: int,
        via_node: int = 0,
        on_done: Optional[Callback] = None,
    ) -> None:
        """Delete a copy *during* a run, with TLB shootdown and timing.

        The paper: "Deleting a copy is akin to removing a page in a
        paging operating system, since all the nodes that have a copy of
        the page must update their address translation tables and flush
        their TLBs."  Sequence, driven from ``via_node``:

        1. The copy-list is rewired around the dying copy, so new writes
           skip it (updates already in flight still traverse it).
        2. A shootdown interrupt goes to every node whose page table maps
           this copy; each drops the mapping, flushes its TLB and acks.
        3. After every ack plus a drain window (for updates that were
           already crossing the mesh), the frame and its CM table entries
           are reclaimed and ``on_done`` fires.
        """
        from repro.network.message import Message, MsgKind

        machine = self._machine
        clist = self.copylist(vpage)
        copy = clist.copy_on(node_id)
        if copy is None:
            raise ReplicationError(
                f"node {node_id} holds no copy of vpage {vpage}"
            )
        if copy == clist.master and len(clist) > 1:
            raise ReplicationError(
                f"cannot live-delete master {copy}; promote another copy "
                "first"
            )
        if len(clist) == 1:
            raise ReplicationError(
                f"cannot delete the only copy of vpage {vpage}"
            )
        # 1. Rewire the chain; the dying copy keeps its own tables so
        # straggler updates still forward correctly.
        dying_next = machine.nodes[node_id].cm.tables.next_of(copy.page)
        dying_master = machine.nodes[node_id].cm.tables.master_of(copy.page)
        clist.remove(copy)
        self._rebuild_tables(vpage)
        machine.nodes[node_id].cm.tables.register(
            copy.page, dying_master, dying_next
        )

        # 2. Shoot down every mapping of the dying copy.
        mapped = [
            node.node_id
            for node in machine.nodes
            if node.page_table.mapping_of(vpage) == copy
        ]
        xid = next(self._copy_xids)
        pending = {"count": 0}

        def finalize() -> None:
            # The frame is reclaimed, but its CM table entry stays as a
            # forwarding tombstone: on a congested machine a request
            # issued against the old mapping can outlive the drain
            # window, and the dying node must still know where the
            # page's master went (the CM's read/update paths fall back
            # to this entry when the frame is gone).  The entry is a
            # pair of pointers per migrated frame — negligible next to
            # the reclaimed page.
            machine.nodes[node_id].memory.free_frame(copy.page)
            machine.nodes[via_node].cm.unregister_copy_handler(xid)
            if on_done is not None:
                on_done()

        def all_acked() -> None:
            machine.engine.after(
                machine.params.shootdown_drain_cycles, finalize
            )

        def on_ack(_msg) -> None:
            pending["count"] -= 1
            if pending["count"] == 0:
                all_acked()

        machine.nodes[via_node].cm.register_copy_handler(xid, on_ack)
        for target in mapped:
            if target == via_node:
                # Local shootdown: no interrupt message needed.
                machine.nodes[target].page_table.invalidate(vpage)
                continue
            pending["count"] += 1
            machine.nodes[via_node].cm.transmit(
                Message(
                    kind=MsgKind.TLB_SHOOTDOWN,
                    src=via_node,
                    dst=target,
                    value=vpage,
                    origin=via_node,
                    xid=xid,
                )
            )
        if pending["count"] == 0:
            all_acked()

    def repair_after_crash(self, node_id: int, durability: str) -> None:
        """Repair every copy-list that names a crashed node.

        Called by the machine at the instant of the crash (the OS's
        replicated page directory observes node failure immediately; the
        paper's fault model, like the delete-copy path, repairs tables
        by fiat).  For each page the dead node held:

        * A *non-master copy* is orphaned: it is dropped from the
          copy-list, its frame freed, and every mapping of it shot down
          by fiat, exactly as :meth:`delete_copy` does.  Surviving
          traffic routes around the corpse; update chains that were
          mid-flight through it are healed by the reliable layer's
          flush re-routing against the rebuilt tables.
        * A *master with surviving copies* depends on ``durability``:
          under ``"preserve"`` the dead node's memory (and therefore
          the authoritative master data) survives the down window, so
          the mastership stays put — writes routed to it are flushed as
          lost-but-acknowledged while it is down.  Under ``"scrub"``
          the data will be zeroed at restart, so the first surviving
          copy is promoted to master and the dead node's stale page is
          dropped like an orphan.
        * A *sole copy* always stays registered: there is nowhere else
          the data could live (under ``"scrub"`` it simply comes back
          zeroed).
        """
        machine = self._machine
        dead = machine.nodes[node_id]
        for vpage, clist in self._copylists.items():
            copy = clist.copy_on(node_id)
            if copy is None:
                continue
            if len(clist) == 1:
                continue  # sole copy: nowhere else to go
            if copy == clist.master:
                if durability != "scrub":
                    continue  # master data survives in place
                survivor = next(
                    c for c in clist.copies if c.node != node_id
                )
                clist.promote(survivor)
                machine.nodes[survivor.node].cm.on_promoted_master(
                    survivor.page
                )
            clist.remove(copy)
            dead.cm.tables.unregister(copy.page)
            dead.memory.free_frame(copy.page)
            self._rebuild_tables(vpage)
            for node in machine.nodes:
                if node.page_table.mapping_of(vpage) == copy:
                    node.page_table.invalidate(vpage)

    def promote_master(self, vpage: int, node_id: int) -> None:
        """Make ``node_id``'s copy the master (page-migration support)."""
        clist = self.copylist(vpage)
        copy = clist.copy_on(node_id)
        if copy is None:
            raise ReplicationError(
                f"node {node_id} holds no copy of vpage {vpage}"
            )
        clist.promote(copy)
        self._rebuild_tables(vpage)

    def migrate(self, vpage: int, to_node: int) -> PhysPage:
        """Move an unreplicated page to ``to_node`` (copy then delete).

        Page migration is achieved simply by creating a copy and then
        deleting the old one (Section 2.4).
        """
        clist = self.copylist(vpage)
        if len(clist) != 1:
            raise ReplicationError(
                f"migrate expects an unreplicated page; vpage {vpage} has "
                f"{len(clist)} copies"
            )
        old = clist.master
        if old.node == to_node:
            return old
        new = self.replicate(vpage, to_node)
        self.promote_master(vpage, to_node)
        self.delete_copy(vpage, old.node)
        return new
