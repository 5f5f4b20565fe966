"""Tests for the shared-memory allocator and the run reports."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import PAPER_PARAMS
from repro.errors import ConfigError
from repro.machine import PlusMachine
from repro.stats.report import format_table

from tests.conftest import SMALL_PAGES
from tests.helpers import run_threads


class TestSharedMemory:
    def test_alloc_is_page_granular_and_contiguous(self, machine4):
        words = machine4.params.page_words
        seg = machine4.shm.alloc(words + 1, home=1)
        assert len(seg.vpages) == 2
        assert seg.base == seg.vpages[0] * words
        assert seg.addr(words) == seg.vpages[1] * words

    def test_addr_bounds_checked(self, machine4):
        seg = machine4.shm.alloc(10, home=0)
        assert seg.addr(9) == seg.base + 9
        with pytest.raises(ConfigError):
            seg.addr(10)
        with pytest.raises(ConfigError):
            seg.addr(-1)

    def test_zero_words_rejected(self, machine4):
        with pytest.raises(ConfigError):
            machine4.shm.alloc(0)

    def test_replicas_cover_every_page_of_segment(self, machine4):
        words = machine4.params.page_words
        seg = machine4.shm.alloc(2 * words, home=0, replicas=[2])
        for vpage in seg.vpages:
            assert 2 in machine4.os.copylist(vpage)

    def test_home_listed_in_replicas_is_harmless(self, machine4):
        seg = machine4.shm.alloc(4, home=1, replicas=[1, 2])
        assert machine4.os.copylist(seg.vpages[0]).nodes[0] == 1

    def test_load_and_dump(self, machine4):
        seg = machine4.shm.alloc(8, home=2)
        machine4.shm.load(seg, [5, 6, 7], at=2)
        assert machine4.shm.dump(seg, start=2, count=3) == [5, 6, 7]
        assert machine4.shm.dump(seg)[:2] == [0, 0]

    def test_out_of_range_load_raises_and_writes_nothing(self, machine4):
        seg = machine4.shm.alloc(8, home=2, replicas=[1])
        for at in (6, -1):
            with pytest.raises(ConfigError):
                machine4.shm.load(seg, [1, 2, 3], at=at)
        assert machine4.shm.dump(seg) == [0] * 8
        assert [machine4.peek_copy(seg.addr(i), 1) for i in range(8)] == [0] * 8

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bulk_load_equals_per_word_poke(self, data):
        """Across page boundaries, into every copy, on warmed caches:
        memory and cache state as if each word were poked in turn."""
        page_words = SMALL_PAGES.page_words
        policy = data.draw(st.sampled_from(["update", "invalidate"]))
        nwords = data.draw(st.integers(1, 3 * page_words))
        at = data.draw(st.integers(0, nwords - 1))
        values = data.draw(
            st.lists(st.integers(-(1 << 33), 1 << 33), max_size=nwords - at)
        )
        replicas = data.draw(st.lists(st.integers(1, 3), max_size=3, unique=True))
        warm = data.draw(st.lists(st.integers(0, nwords - 1), max_size=16))

        def build():
            machine = PlusMachine(
                n_nodes=4, params=SMALL_PAGES, snoop_policy=policy
            )
            seg = machine.shm.alloc(nwords, home=0, replicas=replicas)
            for index in warm:
                vpage, offset = divmod(seg.addr(index), page_words)
                for copy in machine.os.copies_of(vpage):
                    cache = machine.nodes[copy.node].cache
                    cache.read_cycles(copy.page, offset)
            return machine, seg

        def state(machine, seg):
            words = [
                (copy.node, machine.nodes[copy.node].memory.snapshot_page(copy.page))
                for vpage in seg.vpages
                for copy in machine.os.copies_of(vpage)
            ]
            caches = [
                (n.cache.snoop_updates, n.cache.snoop_invalidates, n.cache._tags)
                for n in machine.nodes
            ]
            return words, caches

        bulk, seg = build()
        bulk.shm.load(seg, values, at=at)
        poked, seg = build()
        for i, value in enumerate(values):
            poked.poke(seg.addr(at + i), value)
        assert state(bulk, seg) == state(poked, seg)

    def test_alloc_queue_initialises_ring_pointers(self, machine4):
        queue = machine4.shm.alloc_queue(home=3)
        ring = machine4.params.queue_ring_base
        assert machine4.peek(queue.tail_va) == ring
        assert machine4.peek(queue.head_va) == ring
        assert queue.capacity == machine4.params.queue_capacity

    def test_segments_registry(self, machine4):
        before = len(machine4.shm.segments)
        machine4.shm.alloc(4, home=0, name="mine")
        assert len(machine4.shm.segments) == before + 1
        assert machine4.shm.segments[-1].name == "mine"


class TestRunReport:
    def test_seconds_uses_cycle_time(self, machine1):
        def worker(ctx):
            yield from ctx.compute(25_000)

        report, _ = run_threads(machine1, (0, worker))
        assert report.seconds == pytest.approx(25_000 * 40e-9)

    def test_ratios_infinite_when_denominator_zero(self, machine1):
        def worker(ctx):
            yield from ctx.compute(10)

        report, _ = run_threads(machine1, (0, worker))
        assert report.reads_local_over_remote() == float("inf")
        assert report.total_over_update() == float("inf")

    def test_busy_fraction_at_least_utilization(self, machine4):
        seg = machine4.shm.alloc(1, home=1)

        def worker(ctx):
            for _ in range(5):
                yield from ctx.read(seg.base)
                yield from ctx.spin(50)

        report, _ = run_threads(machine4, (0, worker))
        assert report.busy_fraction() >= report.utilization()
        assert report.utilization() >= 0

    def test_per_node_utilization_shape(self, machine4):
        def worker(ctx):
            yield from ctx.compute(100)

        report, _ = run_threads(machine4, (2, worker))
        per_node = report.per_node_utilization()
        assert len(per_node) == 4
        assert per_node[2] == max(per_node)

    def test_rmw_mix_aggregates_over_nodes(self, machine4):
        from repro.core.params import OpCode

        seg = machine4.shm.alloc(1, home=0)

        def worker(ctx):
            yield from ctx.fetch_add(seg.base, 1)

        report, _ = run_threads(machine4, (1, worker), (2, worker))
        assert report.counters.rmw_mix()[OpCode.FETCH_ADD] == 2


class TestFormatTable:
    def test_alignment_and_floats(self):
        out = format_table(
            ["name", "value"],
            [["a", 1.234], ["bb", 10]],
            title="T",
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1.23" in out
        assert "10" in out
        # All rows share the same width.
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestMachineSummary:
    def test_summary_contains_topology_and_segments(self, machine4):
        from repro.stats.summary import machine_summary

        machine4.shm.alloc(8, home=1, replicas=[2], name="demo")
        text = machine_summary(machine4)
        assert "4 nodes on a 2x2 mesh" in text
        assert "demo" in text
        assert "1->2" in text  # the copy-list chain
        assert "shared-memory map" in text
        assert "nodes" in text

    def test_summary_reflects_protocol_variant(self):
        from repro.core.params import PAPER_PARAMS
        from repro.machine import PlusMachine
        from repro.stats.summary import machine_summary

        machine = PlusMachine(
            n_nodes=2,
            params=PAPER_PARAMS.evolved(coherence_protocol="invalidate"),
        )
        assert "protocol=invalidate" in machine_summary(machine)
