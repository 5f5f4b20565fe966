"""Unit tests for mesh topology, link timing, and the fabric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import PAPER_PARAMS
from repro.errors import ConfigError
from repro.memory.address import PhysAddr
from repro.network.fabric import Fabric
from repro.network.message import Message, MsgKind
from repro.network.router import LinkModel
from repro.network.topology import Mesh
from repro.sim.engine import Engine


class TestMesh:
    def test_nearly_square_shape(self):
        assert (Mesh(16).width, Mesh(16).height) == (4, 4)
        assert (Mesh(12).width, Mesh(12).height) == (4, 3)
        assert (Mesh(1).width, Mesh(1).height) == (1, 1)

    def test_explicit_shape(self):
        mesh = Mesh(8, width=8, height=1)
        assert mesh.coord(7) == (7, 0)

    def test_shape_too_small_rejected(self):
        with pytest.raises(ConfigError):
            Mesh(10, width=3, height=3)

    def test_coords_row_major(self):
        mesh = Mesh(16)
        assert mesh.coord(0) == (0, 0)
        assert mesh.coord(5) == (1, 1)
        assert mesh.node_at(1, 1) == 5

    def test_hops_is_manhattan_distance(self):
        mesh = Mesh(16)
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 3) == 3
        assert mesh.hops(0, 15) == 6
        assert mesh.hops(5, 10) == 2

    def test_route_is_dimension_order_x_first(self):
        mesh = Mesh(16)
        links = mesh.route(0, 10)  # (0,0) -> (2,2)
        assert links == [(0, 1), (1, 2), (2, 6), (6, 10)]

    def test_route_length_equals_hops(self):
        mesh = Mesh(16)
        for src in range(16):
            for dst in range(16):
                assert len(mesh.route(src, dst)) == mesh.hops(src, dst)

    def test_route_links_are_adjacent_steps(self):
        mesh = Mesh(12)
        for src in (0, 5, 11):
            for dst in (0, 5, 11):
                here = src
                for a, b in mesh.route(src, dst):
                    assert a == here
                    assert mesh.hops(a, b) == 1
                    here = b
                assert here == dst

    def test_neighbors_counts(self):
        mesh = Mesh(9)  # 3x3
        assert sorted(mesh.neighbors(4)) == [1, 3, 5, 7]   # center
        assert sorted(mesh.neighbors(0)) == [1, 3]          # corner

    def test_neighbors_skip_missing_nodes(self):
        mesh = Mesh(3)  # 2x2 grid with node 3 absent
        assert 3 not in list(mesh.neighbors(1))

    def test_nearest_to(self):
        mesh = Mesh(16)
        assert mesh.nearest_to(0, [15, 1, 9]) == 1
        assert mesh.nearest_to(0, [5, 10]) == 5
        # Ties broken by lowest node id.
        assert mesh.nearest_to(0, [4, 1]) == 1
        with pytest.raises(ConfigError):
            mesh.nearest_to(0, [])


#: Shared long-lived meshes (routing is arithmetic and stateless now,
#: but the shared instances keep exercising repeated-use behavior).
_SHARED_4X4 = Mesh(16)
_SHARED_RAGGED = Mesh(5, width=3, height=2)


class TestArithmeticRouting:
    """The cache-free arithmetic router must reproduce the original
    coordinate-stepping loop (kept as ``Mesh._compute_route``) exactly."""

    def test_route_matches_reference_computation_all_pairs(self):
        for mesh in (_SHARED_4X4, _SHARED_RAGGED):
            for src in range(mesh.n_nodes):
                for dst in range(mesh.n_nodes):
                    route = mesh.route(src, dst)
                    assert route == mesh._compute_route(src, dst)
                    assert mesh.hops(src, dst) == len(route)

    @settings(max_examples=60)
    @given(src=st.integers(0, 15), dst=st.integers(0, 15))
    def test_route_matches_reference_4x4(self, src, dst):
        route = _SHARED_4X4.route(src, dst)
        assert route == Mesh(16)._compute_route(src, dst)
        assert len(route) == _SHARED_4X4.hops(src, dst)

    @settings(max_examples=40)
    @given(src=st.integers(0, 4), dst=st.integers(0, 4))
    def test_route_matches_reference_ragged_3x2(self, src, dst):
        route = _SHARED_RAGGED.route(src, dst)
        fresh = Mesh(5, width=3, height=2)
        assert route == fresh._compute_route(src, dst)
        assert len(route) == _SHARED_RAGGED.hops(src, dst)

    def test_route_steps_agree_with_route(self):
        mesh = Mesh(16)
        for src in range(16):
            for dst in range(16):
                nx, sx, ny, sy = mesh.route_steps(src, dst)
                assert nx + ny == len(mesh.route(src, dst))
                assert sx in (-1, 1) and sy in (-1, 1)

    def test_shapes_route_independently(self):
        a = Mesh(16)
        b = Mesh(16, width=16, height=1)
        assert a.route(0, 5) != b.route(0, 5)


def _traverse(links, mesh, src, dst, depart, size_bytes):
    return links.traverse_steps(
        src, mesh.route_steps(src, dst), depart, size_bytes
    )


class TestLinkModel:
    def test_uncontended_latency(self):
        params = PAPER_PARAMS
        mesh = Mesh(16)
        links = LinkModel(params, mesh)
        arrive = _traverse(links, mesh, 0, 1, depart=0, size_bytes=4)
        assert arrive == params.net_fixed_cycles + params.net_hop_cycles

    def test_adjacent_round_trip_is_24_cycles(self):
        params = PAPER_PARAMS
        mesh = Mesh(4)
        links = LinkModel(params, mesh)
        t1 = _traverse(links, mesh, 0, 1, depart=0, size_bytes=4)
        t2 = _traverse(links, mesh, 1, 0, depart=t1, size_bytes=4)
        assert t2 == 24

    def test_contention_delays_second_message(self):
        params = PAPER_PARAMS
        mesh = Mesh(4)
        links = LinkModel(params, mesh)
        # 100-cycle hold
        first = _traverse(links, mesh, 0, 1, depart=0, size_bytes=80)
        second = _traverse(links, mesh, 0, 1, depart=0, size_bytes=80)
        assert second > first

    def test_disjoint_paths_do_not_interact(self):
        params = PAPER_PARAMS
        mesh = Mesh(16)
        links = LinkModel(params, mesh)
        t1 = _traverse(links, mesh, 0, 1, depart=0, size_bytes=400)
        t2 = _traverse(links, mesh, 14, 15, depart=0, size_bytes=400)
        assert t1 == t2

    def test_busy_accounting(self):
        params = PAPER_PARAMS
        mesh = Mesh(4)
        links = LinkModel(params, mesh)
        _traverse(links, mesh, 0, 3, depart=0, size_bytes=8)
        assert links.total_link_messages() == 2  # two hops
        assert links.total_busy_cycles() == 2 * params.link_occupancy_cycles(8)
        assert len(links.hottest_links()) == 2


class TestMessages:
    def test_update_size_grows_with_extra_writes(self):
        single = Message(MsgKind.UPDATE, 0, 1, writes=[(0, 1)])
        double = Message(MsgKind.UPDATE, 0, 1, writes=[(0, 1), (1, 2)])
        assert double.size_bytes == single.size_bytes + 8

    def test_page_copy_data_size_includes_words(self):
        msg = Message(MsgKind.PAGE_COPY_DATA, 0, 1, words=[0] * 32)
        empty = Message(MsgKind.PAGE_COPY_DATA, 0, 1, words=[])
        assert msg.size_bytes == empty.size_bytes + 128

    def test_message_ids_stamped_by_fabric_per_machine(self):
        # Ids are a property of one fabric's traffic, not of the
        # process: two identical machines stamp identical id streams,
        # so transcripts never depend on what ran earlier in-process
        # (fork/spawn cleanliness for warm sweep workers).
        def first_ids():
            engine = Engine()
            fabric = Fabric(engine, Mesh(4), PAPER_PARAMS)
            seen = []
            fabric.attach(1, lambda msg: seen.append(msg.msg_id))
            a = Message(MsgKind.READ_REQ, 0, 1)
            b = Message(MsgKind.READ_REQ, 0, 1)
            assert a.msg_id == b.msg_id == -1  # unstamped until sent
            fabric.send(a)
            fabric.send(b)
            engine.run()
            return seen

        assert first_ids() == [0, 1]
        assert first_ids() == [0, 1]


class TestFabric:
    @staticmethod
    def _fabric(n=4):
        engine = Engine()
        fabric = Fabric(engine, Mesh(n), PAPER_PARAMS)
        return engine, fabric

    def test_delivers_to_attached_receiver(self):
        engine, fabric = self._fabric()
        got = []
        fabric.attach(1, got.append)
        msg = Message(MsgKind.READ_REQ, 0, 1, addr=PhysAddr(1, 0, 0))
        fabric.send(msg)
        engine.run()
        assert got == [msg]
        assert engine.now == PAPER_PARAMS.one_way_latency(1)

    def test_rejects_self_messages(self):
        _, fabric = self._fabric()
        fabric.attach(0, lambda m: None)
        with pytest.raises(ConfigError):
            fabric.send(Message(MsgKind.READ_REQ, 0, 0))

    def test_rejects_unattached_destination(self):
        _, fabric = self._fabric()
        with pytest.raises(ConfigError):
            fabric.send(Message(MsgKind.READ_REQ, 0, 2))

    def test_rejects_double_attach(self):
        _, fabric = self._fabric()
        fabric.attach(1, lambda m: None)
        with pytest.raises(ConfigError):
            fabric.attach(1, lambda m: None)

    def test_point_to_point_fifo_order(self):
        engine, fabric = self._fabric()
        got = []
        fabric.attach(3, lambda m: got.append(m.xid))
        for i in range(10):
            fabric.send(Message(MsgKind.WRITE_ACK, 0, 3, xid=i))
        engine.run()
        assert got == list(range(10))

    def test_stats_by_kind_and_hops(self):
        engine, fabric = self._fabric()
        fabric.attach(3, lambda m: None)
        fabric.send(Message(MsgKind.READ_REQ, 0, 3))
        fabric.send(Message(MsgKind.UPDATE, 0, 3, writes=[(0, 0)]))
        engine.run()
        stats = fabric.stats
        assert stats.total_messages == 2
        assert stats.messages_by_kind[MsgKind.READ_REQ] == 1
        assert stats.messages_by_kind[MsgKind.UPDATE] == 1
        assert stats.total_hops == 4  # 0 -> 3 is 2 hops in a 2x2 mesh
        assert stats.mean_hops == 2.0
        assert stats.count(MsgKind.READ_REQ, MsgKind.UPDATE) == 2


class TestFifoFloorReconciliation:
    """The FIFO delivery floor must agree with the link timing stats."""

    def test_delivery_never_precedes_traverse_and_holds_are_charged(self):
        # Zero link occupancy removes serialisation delay entirely, so
        # same-pair messages injected in the same cycle would all compute
        # the same raw traverse time — only the FIFO floor separates
        # them.  Regression: the floor used to be applied in Fabric.send
        # *after* LinkModel.traverse, so delivery times disagreed with
        # the link busy/occupancy statistics.
        params = PAPER_PARAMS.evolved(link_bytes_per_cycle=0)
        engine = Engine()
        fabric = Fabric(engine, Mesh(4), params)
        fabric.attach(3, lambda m: None)
        uncontended = params.one_way_latency(2)  # 0 -> 3 is 2 hops

        deliveries = [
            fabric.send(Message(MsgKind.WRITE_ACK, 0, 3, xid=i))
            for i in range(5)
        ]
        # Every delivery lands at or after the physical traverse time...
        assert all(t >= uncontended for t in deliveries)
        # ...in strict FIFO order...
        assert deliveries == [uncontended + i for i in range(5)]
        # ...and the cycles spent held behind a predecessor show up in
        # the link statistics (holds of 0+1+2+3+4 cycles).
        assert fabric.links.total_busy_cycles() == 10

    def test_floor_is_inert_when_links_serialise(self):
        # With real occupancy (>= 1 cycle per message) link serialisation
        # already spaces same-pair messages out, so the floor never
        # binds: fabric delivery times match a plain traverse replay.
        engine = Engine()
        fabric = Fabric(engine, Mesh(4), PAPER_PARAMS)
        fabric.attach(3, lambda m: None)
        mirror = LinkModel(PAPER_PARAMS, Mesh(4))

        for i in range(6):
            msg = Message(MsgKind.UPDATE, 0, 3, xid=i, writes=[(0, i)])
            expected = _traverse(
                mirror, Mesh(4), 0, 3, depart=0, size_bytes=msg.size_bytes
            )
            assert fabric.send(msg) == expected
