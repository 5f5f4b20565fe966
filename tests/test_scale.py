"""Scale-machinery tests: torus geometry, the flyweight page directory,
the compact memory arena, and the placement workload's determinism.

These cover the machinery that lets a 1,024-node machine map a million
pages in seconds: wrap-around arithmetic routing, an extent page
directory with implicit CM self-mastery, bulk page creation checked
against the per-page reference, and lazy-zero frame storage.
"""

import gc
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.placement import PlacementConfig, run_placement
from repro.core.copylist import CMTables
from repro.core.params import PAPER_PARAMS, TimingParams
from repro.errors import AddressError, ConfigError, ReplicationError
from repro.machine import PlusMachine
from repro.memory.address import PhysAddr, PhysPage
from repro.memory.mapping import PageTable
from repro.memory.physical import LocalMemory
from repro.network.topology import Mesh, Torus, make_topology

#: Shapes exercised by the torus property suite: square even (the
#: tie-break case), square odd, ragged, and the degenerate 2-wide ring
#: whose +1/-1 steps land on the same neighbour.
_TORUS_SHAPES = ((4, 4), (5, 5), (5, 3), (2, 4), (8, 8))


def _tori():
    return [Torus(w * h, width=w, height=h) for w, h in _TORUS_SHAPES]


class TestTorusGeometry:
    def test_hops_symmetric_all_pairs(self):
        for torus in _tori():
            n = torus.n_nodes
            for a in range(n):
                for b in range(n):
                    assert torus.hops(a, b) == torus.hops(b, a)

    def test_hops_never_longer_than_mesh(self):
        # Wrap links can only shorten distances, never lengthen them.
        for w, h in _TORUS_SHAPES:
            torus = Torus(w * h, width=w, height=h)
            mesh = Mesh(w * h, width=w, height=h)
            for a in range(torus.n_nodes):
                for b in range(torus.n_nodes):
                    assert torus.hops(a, b) <= mesh.hops(a, b)
                    assert torus.hops(a, b) <= w // 2 + h // 2

    def test_route_is_valid_neighbor_walk_of_length_hops(self):
        for torus in _tori():
            n = torus.n_nodes
            for src in range(n):
                for dst in range(n):
                    route = torus.route(src, dst)
                    assert len(route) == torus.hops(src, dst)
                    here = src
                    for a, b in route:
                        assert a == here
                        assert torus.hops(a, b) == 1
                        here = b
                    assert here == dst

    @settings(max_examples=80)
    @given(
        shape=st.sampled_from(_TORUS_SHAPES),
        src=st.integers(0, 63),
        dst=st.integers(0, 63),
    )
    def test_route_steps_agree_with_route(self, shape, src, dst):
        w, h = shape
        torus = Torus(w * h, width=w, height=h)
        src %= torus.n_nodes
        dst %= torus.n_nodes
        nx, sx, ny, sy = torus.route_steps(src, dst)
        assert nx + ny == len(torus.route(src, dst))
        assert sx in (-1, 1) and sy in (-1, 1)

    def test_equal_arc_tie_breaks_toward_decreasing_coordinate(self):
        torus = Torus(16)  # 4x4: distance 2 ties in both dimensions
        nx, sx, _, _ = torus.route_steps(0, 2)
        assert (nx, sx) == (2, -1)  # 0 -> 3 -> 2, not 0 -> 1 -> 2
        _, _, ny, sy = torus.route_steps(0, 8)
        assert (ny, sy) == (2, -1)

    def test_routes_are_deterministic(self):
        for torus in _tori():
            fresh = Torus(torus.n_nodes, torus.width, torus.height)
            for src in (0, torus.n_nodes - 1):
                for dst in range(torus.n_nodes):
                    assert torus.route(src, dst) == fresh.route(src, dst)

    def test_wrap_route_uses_the_short_arc(self):
        torus = Torus(25)  # 5x5
        # (0,0) -> (4,0): one wrap step left, not four steps right.
        assert torus.route(0, 4) == [(0, 4)]
        # (0,0) -> (0,4): one wrap step up.
        assert torus.route(0, 20) == [(0, 20)]

    def test_neighbors_wrap_around(self):
        torus = Torus(16)
        assert sorted(torus.neighbors(0)) == [1, 3, 4, 12]

    def test_link_id_roundtrip_all_links(self):
        for torus in _tori():
            seen = set()
            for node in range(torus.n_nodes):
                for neighbor in torus.neighbors(node):
                    lid = torus.link_id(node, neighbor)
                    assert 0 <= lid < torus.n_link_ids
                    assert torus.link_of(lid) == (node, neighbor)
                    assert lid not in seen
                    seen.add(lid)

    def test_two_wide_ring_folds_both_directions_onto_one_link(self):
        # On a 2-wide wrapped dimension +1 and -1 reach the same
        # neighbour; both must resolve to one canonical link id.
        torus = Torus(8, width=2, height=4)
        assert torus.link_id(0, 1) == torus.link_id(0, 1)
        lid = torus.link_id(0, 1)
        assert torus.link_of(lid) == (0, 1)

    def test_registry_constructs_torus(self):
        torus = make_topology("torus", 16)
        assert isinstance(torus, Torus)
        assert torus.wraps


class TestFlyweightDirectory:
    """Extent page metadata vs materialized CopyLists."""

    def _machine(self, n_nodes=4):
        return PlusMachine(n_nodes=n_nodes)

    def test_single_copy_pages_stay_flat(self):
        machine = self._machine()
        seg = machine.shm.alloc(machine.params.page_words * 3, home=2)
        for vpage in seg.vpages:
            assert vpage not in machine.os._copylists
            assert machine.os.master_copy(vpage).node == 2
            assert machine.os.copy_count(vpage) == 1
            # The read-only accessors must not have materialized it.
            assert vpage not in machine.os._copylists

    def test_read_only_accessors_match_materialized_view(self):
        machine = self._machine()
        seg = machine.shm.alloc(machine.params.page_words, home=1)
        vpage = seg.vpages[0]
        flat_master = machine.os.master_copy(vpage)
        flat_copies = machine.os.copies_of(vpage)
        flat_on = machine.os.copy_on_node(vpage, 1)
        clist = machine.os.copylist(vpage)  # materializes
        assert vpage in machine.os._copylists
        assert clist.master == flat_master
        assert clist.copies == flat_copies
        assert clist.copy_on(1) == flat_on
        assert machine.os.copy_on_node(vpage, 0) is None

    def test_peek_poke_work_without_materializing(self):
        machine = self._machine()
        seg = machine.shm.alloc(machine.params.page_words, home=3)
        machine.poke(seg.base + 5, 1234)
        assert machine.peek(seg.base + 5) == 1234
        assert seg.vpages[0] not in machine.os._copylists

    def test_replication_materializes_and_agrees(self):
        machine = self._machine()
        seg = machine.shm.alloc(machine.params.page_words, home=0)
        vpage = seg.vpages[0]
        machine.poke(seg.base, 77)
        machine.os.replicate(vpage, 2)
        assert vpage in machine.os._copylists
        assert machine.os.copy_count(vpage) == 2
        assert [c.node for c in machine.os.copies_of(vpage)] == [0, 2]
        assert machine.nodes[2].memory.read(
            machine.os.copy_on_node(vpage, 2).page, 0
        ) == 77

    def test_known_vpages_covers_flat_and_materialized(self):
        machine = self._machine()
        seg = machine.shm.alloc(machine.params.page_words * 4, home=0)
        machine.os.copylist(seg.vpages[1])  # materialize one of them
        known = set(machine.os.known_vpages())
        assert set(seg.vpages) <= known

    def test_implicit_self_mastery(self):
        machine = self._machine()
        seg = machine.shm.alloc(machine.params.page_words, home=1)
        tables = machine.nodes[1].cm.tables
        ppage = machine.os.master_copy(seg.vpages[0]).page
        # No explicit entry was registered at create time...
        assert ppage not in tables._master
        # ...but the hardware view is an unreplicated self-mastered page.
        assert tables.knows(ppage)
        assert tables.master_of(ppage) == PhysPage(1, ppage)
        assert tables.next_of(ppage) is None
        assert tables.is_master(ppage)
        # The first lookup cached the entry (steady state = one dict hit).
        assert ppage in tables._master

    def test_implicit_entry_requires_live_frame(self):
        memory = LocalMemory(node_id=0, page_words=8)
        tables = CMTables(0, memory)
        with pytest.raises(ReplicationError):
            tables.master_of(0)  # no such frame
        page = memory.allocate_frame()
        assert tables.master_of(page) == PhysPage(0, page)

    def test_forget_clears_stale_entry_on_frame_reuse(self):
        memory = LocalMemory(node_id=0, page_words=8)
        tables = CMTables(0, memory)
        page = memory.allocate_frame()
        # A migrated-away frame keeps a forwarding tombstone...
        tables.register(page, PhysPage(3, 9), None)
        memory.free_frame(page)
        assert tables.master_of(page).node == 3
        # ...until the allocator recycles the id for a brand-new page.
        reused = memory.allocate_frame()
        assert reused == page
        tables.forget(reused)
        assert tables.master_of(reused) == PhysPage(0, reused)


def _reference_alloc(memory):
    """The single-frame allocator, inlined: recycle the last freed id,
    else issue the next never-used one."""
    if memory._free:
        ppage = memory._free.popitem()[0]
    else:
        ppage = memory._next_page
        memory._next_page += 1
    return ppage


def _reference_register(machine, copies):
    """Project one copy-list into its holders' CM tables."""
    for i, copy in enumerate(copies):
        nxt = copies[i + 1] if i + 1 < len(copies) else None
        machine.nodes[copy.node].cm.tables.register(copy.page, copies[0], nxt)


class _ReferenceDirectory:
    """Per-page reference model of the central directory: a dict from
    vpage to its copies (master first), driving a second machine's
    frames and CM tables the way the per-page OS code did."""

    def __init__(self, machine):
        self.machine = machine
        self.copies = {}
        self.materialized = set()

    def create_page(self, home):
        node = self.machine.nodes[home]
        ppage = _reference_alloc(node.memory)
        node.cm.tables.forget(ppage)
        vpage = len(self.copies)
        self.copies[vpage] = [PhysPage(home, ppage)]
        return vpage

    def _materialize(self, vpage):
        if vpage not in self.materialized:
            self.materialized.add(vpage)
            _reference_register(self.machine, self.copies[vpage][:1])

    def replicate_after_master(self, vpage, node_id):
        self._materialize(vpage)
        ppage = _reference_alloc(self.machine.nodes[node_id].memory)
        copies = self.copies[vpage]
        copies.insert(1, PhysPage(node_id, ppage))
        _reference_register(self.machine, copies)

    def migrate(self, vpage, to_node):
        self._materialize(vpage)
        (old,) = self.copies[vpage]
        if old.node == to_node:
            return
        new = PhysPage(
            to_node, _reference_alloc(self.machine.nodes[to_node].memory)
        )
        holder = self.machine.nodes[old.node]
        holder.cm.tables.unregister(old.page)
        holder.memory.free_frame(old.page)
        self.copies[vpage] = [new]
        _reference_register(self.machine, [new])


_NODES = 4

#: One step: ("create", home, n) maps n pages on home; ("free", home, k)
#: frees the k-th live frame of home (mod their number), first leaving
#: a forwarding tombstone on it the way a migrated-away frame does;
#: ("replicate", node, k) copies the k-th intact vpage onto node, after
#: its master; ("migrate", node, k) moves the k-th intact vpage to node.
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.integers(0, _NODES - 1),
                  st.integers(0, 6)),
        st.tuples(st.sampled_from(["free", "replicate", "migrate"]),
                  st.integers(0, _NODES - 1), st.integers(0, 63)),
    ),
    max_size=30,
)


class TestBulkCreation:
    """``create_pages(home, n)`` against n per-page reference creations."""

    @staticmethod
    def _frames(machine):
        nodes = []
        for node in machine.nodes:
            memory, tables = node.memory, node.cm.tables
            nodes.append((
                list(memory.frames()), list(memory._free), memory._next_page,
                dict(tables._master), dict(tables._next),
            ))
        return nodes

    def _assert_agree(self, bulk, ref):
        os_ = bulk.os
        assert os_.known_vpages() == range(len(ref.copies))
        for vpage in os_.known_vpages():
            assert os_.master_copy(vpage) == ref.copies[vpage][0]
            assert os_.copies_of(vpage) == ref.copies[vpage]
        assert set(os_._copylists) == ref.materialized
        assert self._frames(bulk) == self._frames(ref.machine)

    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS)
    def test_matches_per_page_reference(self, steps):
        bulk = PlusMachine(n_nodes=_NODES)
        ref = _ReferenceDirectory(PlusMachine(n_nodes=_NODES))
        #: Vpages with a copy on a frame the "free" step pulled away.
        broken = set()
        for op, node_id, arg in steps:
            intact = [v for v in ref.copies if v not in broken]
            if op == "create":
                got = bulk.os.create_pages(node_id, arg)
                want = [ref.create_page(node_id) for _ in range(arg)]
                assert isinstance(got, range)
                assert list(got) == want
            elif op == "free":
                live = list(bulk.nodes[node_id].memory.frames())
                if not live:
                    continue
                ppage = live[arg % len(live)]
                for machine in (bulk, ref.machine):
                    node = machine.nodes[node_id]
                    tombstone = PhysPage((node_id + 1) % _NODES, ppage)
                    node.cm.tables.register(ppage, tombstone, None)
                    node.memory.free_frame(ppage)
                freed = PhysPage(node_id, ppage)
                broken.update(v for v, c in ref.copies.items() if freed in c)
            elif intact:
                vpage = intact[arg % len(intact)]
                copies = ref.copies[vpage]
                if op == "replicate":
                    if any(c.node == node_id for c in copies):
                        continue
                    bulk.os.replicate(vpage, node_id, after=copies[0].node)
                    ref.replicate_after_master(vpage, node_id)
                elif len(copies) == 1:
                    bulk.os.migrate(vpage, node_id)
                    ref.migrate(vpage, node_id)
            self._assert_agree(bulk, ref)

    def test_create_page_is_the_one_page_case(self, machine4):
        assert machine4.os.create_pages(1, 3) == range(0, 3)
        assert machine4.os.create_page(2) == 3
        assert machine4.os.master_copy(3) == PhysPage(2, 0)
        assert machine4.os.create_pages(0, 0) == range(4, 4)

    def test_negative_count_is_refused(self, machine4):
        with pytest.raises(ConfigError):
            machine4.os.create_pages(1, -3)
        assert machine4.os.known_vpages() == range(0)
        memory = LocalMemory(node_id=0, page_words=8)
        memory.free_frame(memory.allocate_frame())
        with pytest.raises(ConfigError):
            memory.allocate_frames(-1)
        assert list(memory._free) == [0]

    def test_mapping_a_million_pages_grows_no_directory(self):
        machine = PlusMachine(n_nodes=2)
        only = [tracemalloc.Filter(True, "*repro/memory/replication.py")]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(only)
            vpages = machine.os.create_pages(1, 1_000_000)
            after = tracemalloc.take_snapshot().filter_traces(only)
        finally:
            tracemalloc.stop()
        assert len(vpages) == 1_000_000
        grown = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
        )
        assert grown < 64 * 1024

    def test_exhaustion_allocates_nothing(self):
        memory = LocalMemory(node_id=0, page_words=8, max_frames=4)
        memory.allocate_frames(3)
        with pytest.raises(AddressError):
            memory.allocate_frames(2)
        assert memory.allocated_frames == 3
        assert memory.allocate_frames(1) == ([], range(3, 4))


class TestColdPageFootprint:
    def test_cold_pages_cost_under_one_byte_each(self):
        # A cold page holds no flag and no storage: the frames are a
        # high-water mark and the directory one extent per segment.
        machine = PlusMachine(n_nodes=16)
        page_words = machine.params.page_words
        per_home = 262_144 // machine.n_nodes
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            segments = [
                machine.shm.alloc(per_home * page_words, home=home)
                for home in range(machine.n_nodes)
            ]
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(isinstance(seg.vpages, range) for seg in segments)
        assert used / 262_144 <= 1

    def test_cache_tags_allocate_on_first_fill(self):
        machine = PlusMachine(n_nodes=4)
        cache = machine.nodes[0].cache
        assert cache._tags is None
        cache.snoop(0, 0, 1)  # a snoop on an empty cache allocates nothing
        assert not cache.contains(0, 0)
        assert cache._tags is None
        cache.read_cycles(0, 0)
        assert cache.contains(0, 0)
        cache.flush()
        assert cache._tags is None


class TestHostFootprint:
    """Per-node host memory that grows with the node count, not the run."""

    def test_tlb_hit_translations_retain_nothing(self):
        # Once the 8 pages are mapped, each of their 8,192 addresses is a
        # TLB hit (64 entries), and no translation may be kept around.
        table = PageTable(0, TimingParams(), lambda node, vpage: PhysPage(1, vpage))
        for vpage in range(8):
            table.translate(vpage * table.params.page_words)
        only = [tracemalloc.Filter(True, "*repro/memory/mapping.py")]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(only)
            for vaddr in range(8 * table.params.page_words):
                addr, cycles = table.translate(vaddr)
            after = tracemalloc.take_snapshot().filter_traces(only)
        finally:
            tracemalloc.stop()
        assert type(addr) is PhysAddr and cycles == 0
        assert addr == PhysAddr(1, 7, table.params.page_words - 1)
        assert table.tlb.hits == 8 * table.params.page_words
        retained = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
        )
        assert retained < 4 * 1024

    def test_torus_build_per_node_bound(self):
        # Measured on CPython 3.11: ~6.3 KiB per node, against 9.2 KiB when
        # each node's four wait queues were deques (760 bytes each empty).
        n_nodes = 256
        params = PAPER_PARAMS.evolved(topology="torus")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            machine = PlusMachine(n_nodes=n_nodes, params=params)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert machine.n_nodes == n_nodes
        assert used / n_nodes < 7.5 * 1024

    def test_frames_store_32_bit_words(self):
        memory = LocalMemory(node_id=0, page_words=4)
        pages = [memory.allocate_frame() for _ in range(4)]
        memory.write(pages[0], 0, -1)
        memory.write(pages[0], 1, 2**32 + 5)
        memory.write_batch(pages[1], [(0, -1), (1, 2**32 + 5)])
        memory.write_run(pages[2], 0, [-1, 2**32 + 5])
        memory.load_page(pages[3], [-1, 2**32 + 5, 0, 0])
        for page in pages:
            assert memory._storage[page].itemsize == 4
            assert memory.snapshot_page(page)[:2] == [0xFFFFFFFF, 5]

    def test_frame_stores_only_its_written_prefix(self):
        # The placement program touches at most 64 words of a 1,024-word
        # frame; only words 0..63 may be stored, not the whole page.
        memory = LocalMemory(node_id=0, page_words=1024)
        page = memory.allocate_frame()
        memory.write(page, 63, 5)
        storage = memory._storage[page]
        assert len(storage) <= 64
        assert sys.getsizeof(storage) < 512  # a full page is 4 KiB
        assert memory.read(page, 63) == 5
        assert memory.read(page, 1023) == 0


class TestCompactArena:
    def test_allocation_is_lazy(self):
        memory = LocalMemory(node_id=0, page_words=16)
        pages = [memory.allocate_frame() for _ in range(100)]
        assert memory.allocated_frames == 100
        assert memory.materialized_frames == 0
        assert memory.read(pages[50], 3) == 0  # still unmaterialized
        assert memory.materialized_frames == 0
        memory.write(pages[50], 3, 42)
        assert memory.materialized_frames == 1
        assert memory.read(pages[50], 3) == 42

    def test_freed_frame_drops_its_storage(self):
        memory = LocalMemory(node_id=0, page_words=16)
        a = memory.allocate_frame()
        memory.write(a, 0, 7)
        memory.free_frame(a)
        assert memory.allocated_frames == 0
        assert memory.materialized_frames == 0
        b = memory.allocate_frame()
        assert b == a
        memory.write(b, 1, 9)
        assert memory.read(b, 0) == 0
        assert memory.read(b, 1) == 9
        assert memory.materialized_frames == 1

    def test_snapshot_of_unmaterialized_frame_is_zeros(self):
        memory = LocalMemory(node_id=0, page_words=4)
        page = memory.allocate_frame()
        assert memory.snapshot_page(page) == [0, 0, 0, 0]

    def test_backing_pages_construct_unmaterialized(self):
        cfg = PlacementConfig(
            pages=8, requests=0, backing_pages=2048, seed=0
        )
        machine = PlusMachine(n_nodes=16)
        from repro.apps.placement import PlacementApp

        PlacementApp(machine, cfg)
        mapped = sum(n.memory.allocated_frames for n in machine.nodes)
        assert mapped >= 2048
        touched = sum(n.memory.materialized_frames for n in machine.nodes)
        # Only the hot + affine pages were poked; the cold store is free.
        assert touched <= cfg.pages + machine.n_nodes


class TestPlacementDeterminism:
    def _run(self, topology):
        cfg = PlacementConfig(
            pages=32, requests=40, policy="migrate", seed=3
        )
        result = run_placement(16, cfg, topology=topology)
        return (
            result.cycles,
            result.checksum,
            result.report.fabric.total_messages,
            result.migrations,
        )

    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    def test_identical_reruns(self, topology):
        assert self._run(topology) == self._run(topology)

    def test_torus_shortens_routes(self):
        # Write-free so read values cannot depend on delivery timing:
        # the only cross-topology difference should be route lengths.
        cfg = PlacementConfig(
            pages=32, requests=40, write_fraction=0.0, seed=0
        )
        mesh = run_placement(16, cfg, topology="mesh")
        torus = run_placement(16, cfg, topology="torus")
        assert torus.report.fabric.mean_hops < mesh.report.fabric.mean_hops
        # Same access streams, same values read, either way.
        assert torus.checksum == mesh.checksum
