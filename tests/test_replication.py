"""Tests for the replication layer: placement, live copy, migration,
deletion, and competitive replication (Section 2.4)."""

import pytest

from repro.errors import MappingError, ReplicationError
from repro.machine import PlusMachine
from repro.memory.address import PhysPage

from tests.helpers import run_threads


class TestPageDirectory:
    def test_create_page_registers_master(self, machine4):
        vpage = machine4.os.create_page(home=2)
        clist = machine4.os.copylist(vpage)
        assert clist.master.node == 2
        node = machine4.nodes[2]
        assert node.cm.tables.is_master(clist.master.page)

    def test_resolve_prefers_own_copy(self, machine4):
        vpage = machine4.os.create_page(home=0)
        machine4.os.replicate(vpage, 3)
        assert machine4.os.resolve(3, vpage).node == 3
        assert machine4.os.resolve(0, vpage).node == 0

    def test_resolve_picks_closest_copy(self):
        machine = PlusMachine(n_nodes=8, width=8, height=1)
        vpage = machine.os.create_page(home=0)
        machine.os.replicate(vpage, 6)
        assert machine.os.resolve(7, vpage).node == 6
        assert machine.os.resolve(2, vpage).node == 0

    def test_resolve_unknown_vpage_raises(self, machine4):
        with pytest.raises(MappingError):
            machine4.os.resolve(0, 999)

    def test_duplicate_replica_rejected(self, machine4):
        vpage = machine4.os.create_page(home=0)
        machine4.os.replicate(vpage, 1)
        with pytest.raises(ReplicationError):
            machine4.os.replicate(vpage, 1)

    def test_instant_replicate_copies_contents(self, machine4):
        seg = machine4.shm.alloc(4, home=0)
        machine4.poke(seg.base + 2, 55)
        machine4.os.replicate(seg.vpages[0], 3)
        assert machine4.peek_copy(seg.base + 2, 3) == 55

    def test_insertion_heuristic_keeps_chain_short(self):
        machine = PlusMachine(n_nodes=16)
        vpage = machine.os.create_page(home=0)
        for node in (5, 1, 10):
            machine.os.replicate(vpage, node)
        clist = machine.os.copylist(vpage)
        mesh = machine.mesh
        length = sum(
            mesh.hops(a.node, b.node)
            for a, b in zip(clist.copies, clist.copies[1:])
        )
        # Optimal visiting order of {0,1,5,10} from 0 costs 5 hops.
        assert length <= 6


class TestLiveReplication:
    def test_background_copy_transfers_contents(self, machine4):
        seg = machine4.shm.alloc(machine4.params.page_words, home=0)
        for i in range(0, 64, 7):
            machine4.poke(seg.base + i, i * 3 + 1)
        done = []

        def kicker(ctx):
            machine4.os.replicate_live(
                seg.vpages[0], 2, on_done=lambda: done.append(True)
            )
            yield from ctx.compute(1)

        run_threads(machine4, (2, kicker))
        assert done == [True]
        for i in range(0, 64, 7):
            assert machine4.peek_copy(seg.base + i, 2) == i * 3 + 1

    def test_copy_takes_simulated_time(self, machine4):
        seg = machine4.shm.alloc(1, home=0)

        def kicker(ctx):
            start = machine4.engine.now
            finish = []
            machine4.os.replicate_live(
                seg.vpages[0], 1, on_done=lambda: finish.append(machine4.engine.now)
            )
            while not finish:
                yield from ctx.compute(100)
            return finish[0] - start

        _, threads = run_threads(machine4, (1, kicker))
        # 1024 words in 32-word chunks: at least 32 round trips.
        assert threads[0].result > 32 * 24

    def test_writes_overlap_copy_without_corruption(self):
        """The paper: the copy can be overlapped with writes to the same
        page by any processor without destroying page integrity."""
        machine = PlusMachine(n_nodes=4)
        seg = machine.shm.alloc(machine.params.page_words, home=0)
        for i in range(machine.params.page_words):
            machine.poke(seg.base + i, 1_000_000 + i)
        done = []

        def writer(ctx, base):
            # Start the live copy, then write all over the page while the
            # transfer streams.
            machine.os.replicate_live(
                seg.vpages[0], 3, on_done=lambda: done.append(machine.engine.now)
            )
            for i in range(0, machine.params.page_words, 13):
                yield from ctx.write(base + i, 2_000_000 + i)
                yield from ctx.compute(11)
            yield from ctx.fence()
            while not done:
                yield from ctx.compute(50)

        run_threads(machine, (0, writer, seg.base))
        # The new copy must agree with the master everywhere.
        for i in range(machine.params.page_words):
            assert machine.peek_copy(seg.base + i, 3) == machine.peek(
                seg.base + i
            ), f"divergence at offset {i}"

    def test_new_copy_serves_local_reads_after_done(self, machine4):
        seg = machine4.shm.alloc(1, home=0)
        machine4.poke(seg.base, 7)

        def worker(ctx, addr):
            done = []
            machine4.os.replicate_live(
                seg.vpages[0], 1, on_done=lambda: done.append(True)
            )
            while not done:
                yield from ctx.compute(100)
            before = machine4.nodes[1].counters.local_reads
            value = yield from ctx.read(addr)
            after = machine4.nodes[1].counters.local_reads
            return (value, after - before)

        _, threads = run_threads(machine4, (1, worker, seg.base))
        assert threads[0].result == (7, 1)


class TestDeletionAndMigration:
    def test_delete_copy_shrinks_list_and_invalidates_mappings(self, machine4):
        seg = machine4.shm.alloc(1, home=0)
        vpage = seg.vpages[0]
        machine4.os.replicate(vpage, 1)
        machine4.nodes[1].page_table.translate(seg.base)
        machine4.os.delete_copy(vpage, 1)
        assert machine4.os.copylist(vpage).nodes == [0]
        assert machine4.nodes[1].page_table.mapping_of(vpage) is None
        # Node 1 re-faults and maps the remaining master.
        phys, cycles = machine4.nodes[1].page_table.translate(seg.base)
        assert phys.node == 0
        assert cycles == machine4.params.tlb_miss_cycles

    def test_delete_master_with_copies_rejected(self, machine4):
        vpage = machine4.os.create_page(home=0)
        machine4.os.replicate(vpage, 1)
        with pytest.raises(ReplicationError):
            machine4.os.delete_copy(vpage, 0)

    def test_delete_unheld_copy_rejected(self, machine4):
        vpage = machine4.os.create_page(home=0)
        with pytest.raises(ReplicationError):
            machine4.os.delete_copy(vpage, 2)

    def test_promote_master_rewires_tables(self, machine4):
        vpage = machine4.os.create_page(home=0)
        machine4.os.replicate(vpage, 1)
        machine4.os.promote_master(vpage, 1)
        clist = machine4.os.copylist(vpage)
        assert clist.master.node == 1
        copy1 = clist.copy_on(1)
        copy0 = clist.copy_on(0)
        assert machine4.nodes[1].cm.tables.is_master(copy1.page)
        assert not machine4.nodes[0].cm.tables.is_master(copy0.page)

    def test_migrate_moves_page_and_data(self, machine4):
        seg = machine4.shm.alloc(4, home=0)
        machine4.poke(seg.base + 1, 88)
        vpage = seg.vpages[0]
        machine4.os.migrate(vpage, 3)
        clist = machine4.os.copylist(vpage)
        assert clist.nodes == [3]
        assert machine4.peek(seg.base + 1) == 88
        # Frame on node 0 was freed.
        assert not machine4.nodes[0].memory.has_frame(0)

    def test_migrate_replicated_page_rejected(self, machine4):
        vpage = machine4.os.create_page(home=0)
        machine4.os.replicate(vpage, 1)
        with pytest.raises(ReplicationError):
            machine4.os.migrate(vpage, 2)

    def test_writes_after_migration_go_to_new_master(self, machine4):
        seg = machine4.shm.alloc(1, home=0)
        vpage = seg.vpages[0]
        machine4.os.migrate(vpage, 2)

        def writer(ctx, addr):
            yield from ctx.write(addr, 5)
            yield from ctx.fence()

        run_threads(machine4, (1, writer, seg.base))
        assert machine4.peek_copy(seg.base, 2) == 5


class TestCompetitiveReplication:
    def test_hot_remote_page_gets_replicated(self):
        machine = PlusMachine(
            n_nodes=4, enable_competitive=True, competitive_threshold=16
        )
        seg = machine.shm.alloc(8, home=0)
        machine.poke(seg.base, 9)

        def reader(ctx, addr):
            for _ in range(200):
                yield from ctx.read(addr)
                yield from ctx.compute(30)

        run_threads(machine, (3, reader, seg.base))
        assert machine.competitive.interrupts >= 1
        assert machine.competitive.replications >= 1
        assert 3 in machine.os.copylist(seg.vpages[0])
        # And the data made it over intact.
        assert machine.peek_copy(seg.base, 3) == 9

    def test_reads_become_local_after_replication(self):
        machine = PlusMachine(
            n_nodes=4, enable_competitive=True, competitive_threshold=16
        )
        seg = machine.shm.alloc(1, home=0)

        def reader(ctx, addr):
            for _ in range(300):
                yield from ctx.read(addr)
                yield from ctx.compute(20)

        report, _ = run_threads(machine, (3, reader, seg.base))
        node3 = report.counters.nodes[3]
        assert node3.local_reads > 0
        assert node3.local_reads + node3.remote_reads == 300

    def test_max_copies_cap_respected(self):
        machine = PlusMachine(
            n_nodes=8,
            enable_competitive=True,
            competitive_threshold=8,
            competitive_max_copies=2,
        )
        seg = machine.shm.alloc(1, home=0)

        def reader(ctx, addr):
            for _ in range(100):
                yield from ctx.read(addr)
                yield from ctx.compute(20)

        run_threads(machine, *[(n, reader, seg.base) for n in (3, 5, 7)])
        assert len(machine.os.copylist(seg.vpages[0])) <= 2

    def test_below_threshold_no_replication(self):
        machine = PlusMachine(
            n_nodes=4, enable_competitive=True, competitive_threshold=50
        )
        seg = machine.shm.alloc(1, home=0)

        def reader(ctx, addr):
            for _ in range(20):
                yield from ctx.read(addr)
                yield from ctx.compute(20)

        run_threads(machine, (3, reader, seg.base))
        assert machine.competitive.replications == 0
        assert len(machine.os.copylist(seg.vpages[0])) == 1

    def test_disabled_counts_nothing(self):
        machine = PlusMachine(n_nodes=4)  # competitive off by default
        assert machine.competitive is None


class TestCompetitiveMigration:
    """Migration via copy-then-delete, driven by the reference counters."""

    def test_dominant_reader_gets_the_page_migrated(self):
        from repro.memory.competitive import CompetitiveReplicator

        machine = PlusMachine(n_nodes=4)
        machine.competitive = CompetitiveReplicator(
            machine, threshold=16, migrate_unshared=True
        )
        seg = machine.shm.alloc(4, home=0)
        machine.poke(seg.base, 9)

        def reader(ctx):
            value = 0
            for _ in range(300):
                value = yield from ctx.read(seg.base)
                yield from ctx.compute(25)
            return value

        _, threads = run_threads(machine, (3, reader))
        assert threads[0].result == 9
        assert machine.competitive.migrations == 1
        assert machine.competitive.replications == 0
        assert machine.os.copylist(seg.vpages[0]).nodes == [3]
        # The old home's frame was reclaimed.
        assert not machine.nodes[0].memory.has_frame(0)

    def test_shared_page_replicates_instead_of_migrating(self):
        from repro.memory.competitive import CompetitiveReplicator

        machine = PlusMachine(n_nodes=4)
        machine.competitive = CompetitiveReplicator(
            machine, threshold=16, migrate_unshared=True
        )
        seg = machine.shm.alloc(4, home=0)

        def reader(ctx):
            for _ in range(200):
                yield from ctx.read(seg.base)
                yield from ctx.compute(25)

        run_threads(machine, (1, reader), (3, reader))
        assert machine.competitive.migrations == 0
        assert machine.competitive.replications >= 1
        assert machine.os.copylist(seg.vpages[0]).master.node == 0

    def test_writes_still_reach_migrated_master(self):
        from repro.memory.competitive import CompetitiveReplicator

        machine = PlusMachine(n_nodes=4)
        machine.competitive = CompetitiveReplicator(
            machine, threshold=12, migrate_unshared=True
        )
        seg = machine.shm.alloc(1, home=0)

        def reader(ctx):
            for _ in range(200):
                yield from ctx.read(seg.base)
                yield from ctx.compute(25)

        def late_writer(ctx):
            yield from ctx.compute(30_000)  # after the migration settles
            yield from ctx.write(seg.base, 777)
            yield from ctx.fence()

        run_threads(machine, (3, reader), (1, late_writer))
        assert machine.competitive.migrations == 1
        assert machine.peek(seg.base) == 777
