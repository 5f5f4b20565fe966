"""Unit tests for physical memory, addresses, and page tables."""

import pytest

from repro.core.params import TimingParams
from repro.errors import AddressError, MappingError
from repro.memory.address import (
    PhysAddr,
    PhysPage,
    make_vaddr,
    offset_of,
    split_vaddr,
    vpage_of,
)
from repro.memory.mapping import TLB, PageTable
from repro.memory.physical import LocalMemory


class TestAddresses:
    def test_split_and_make_roundtrip(self):
        va = make_vaddr(5, 100, 1024)
        assert va == 5 * 1024 + 100
        assert split_vaddr(va, 1024) == (5, 100)
        assert vpage_of(va, 1024) == 5
        assert offset_of(va, 1024) == 100

    def test_negative_vaddr_rejected(self):
        with pytest.raises(AddressError):
            vpage_of(-1, 1024)
        with pytest.raises(AddressError):
            split_vaddr(-5, 1024)

    def test_make_vaddr_validates_offset(self):
        with pytest.raises(AddressError):
            make_vaddr(0, 1024, 1024)
        with pytest.raises(AddressError):
            make_vaddr(-1, 0, 1024)

    def test_physpage_word_builds_physaddr(self):
        assert PhysPage(3, 7).word(9) == PhysAddr(3, 7, 9)


class TestLocalMemory:
    def test_allocate_read_write(self):
        mem = LocalMemory(0, page_words=64)
        page = mem.allocate_frame()
        assert mem.read(page, 0) == 0
        mem.write(page, 5, 99)
        assert mem.read(page, 5) == 99

    def test_values_masked_to_32_bits(self):
        mem = LocalMemory(0, page_words=16)
        page = mem.allocate_frame()
        mem.write(page, 0, 0x1_2345_6789)
        assert mem.read(page, 0) == 0x2345_6789

    def test_distinct_frames_are_independent(self):
        mem = LocalMemory(0, page_words=16)
        a, b = mem.allocate_frame(), mem.allocate_frame()
        mem.write(a, 0, 1)
        mem.write(b, 0, 2)
        assert mem.read(a, 0) == 1
        assert mem.read(b, 0) == 2

    def test_free_frame_recycles_page_id(self):
        mem = LocalMemory(0, page_words=16)
        a = mem.allocate_frame()
        mem.free_frame(a)
        assert not mem.has_frame(a)
        b = mem.allocate_frame()
        assert b == a  # recycled
        assert mem.read(b, 0) == 0  # zeroed again

    def test_unknown_frame_raises(self):
        mem = LocalMemory(0, page_words=16)
        with pytest.raises(AddressError):
            mem.read(42, 0)

    def test_frame_exhaustion(self):
        mem = LocalMemory(0, page_words=16, max_frames=2)
        mem.allocate_frame()
        mem.allocate_frame()
        with pytest.raises(AddressError):
            mem.allocate_frame()

    def test_snapshot_and_load_page(self):
        mem = LocalMemory(0, page_words=4)
        a = mem.allocate_frame()
        for i in range(4):
            mem.write(a, i, i * 10)
        snap = mem.snapshot_page(a)
        assert snap == [0, 10, 20, 30]
        b = mem.allocate_frame()
        mem.load_page(b, snap)
        assert mem.snapshot_page(b) == snap
        # snapshots are copies, not views
        snap[0] = 999
        assert mem.read(a, 0) == 0

    def test_load_page_length_checked(self):
        mem = LocalMemory(0, page_words=4)
        a = mem.allocate_frame()
        with pytest.raises(AddressError):
            mem.load_page(a, [1, 2])

    def test_write_run_stays_inside_its_frame(self):
        mem = LocalMemory(0, page_words=4)
        a = mem.allocate_frame()
        mem.write_run(a, 1, [7, -1])
        assert mem.snapshot_page(a) == [0, 7, 0xFFFF_FFFF, 0]
        for offset, run in ((3, [1, 2]), (-1, [1])):
            with pytest.raises(AddressError):
                mem.write_run(a, offset, run)
        assert mem.snapshot_page(a) == [0, 7, 0xFFFF_FFFF, 0]


class TestPrefixFrames:
    """A materialized frame stores only words 0..highest written offset."""

    def _frame(self, page_words=8):
        mem = LocalMemory(0, page_words=page_words)
        return mem, mem.allocate_frame()

    def test_read_past_prefix_is_zero(self):
        mem, page = self._frame()
        mem.write(page, 2, 5)
        assert len(mem._storage[page]) == 3
        assert [mem.read(page, i) for i in range(8)] == [0, 0, 5, 0, 0, 0, 0, 0]

    def test_write_at_last_word_grows_to_full_page(self):
        mem, page = self._frame()
        mem.write(page, 0, 1)
        mem.write(page, 7, 2)
        assert len(mem._storage[page]) == 8
        assert mem.snapshot_page(page) == [1, 0, 0, 0, 0, 0, 0, 2]

    @pytest.mark.parametrize("offset", [8, -1])
    @pytest.mark.parametrize("materialized", [False, True])
    def test_offsets_outside_the_page_raise(self, offset, materialized):
        mem, page = self._frame()
        if materialized:
            mem.write(page, 0, 1)
        with pytest.raises(IndexError):
            mem.read(page, offset)
        with pytest.raises(IndexError):
            mem.write(page, offset, 3)
        with pytest.raises(IndexError):
            mem.write_batch(page, [(offset, 3)])
        assert mem.snapshot_page(page) == [int(materialized)] + [0] * 7

    def test_snapshot_pads_the_prefix_with_zeros(self):
        mem, page = self._frame()
        mem.write_batch(page, [(1, 4), (3, 6)])
        snap = mem.snapshot_page(page)
        assert len(snap) == 8
        assert snap == [0, 4, 0, 6, 0, 0, 0, 0]

    def test_zero_page_reads_all_zeros(self):
        mem, page = self._frame()
        mem.write(page, 5, 9)
        mem.zero_page(page)
        assert mem.snapshot_page(page) == [0] * 8
        assert mem.read(page, 5) == 0
        mem.write(page, 1, 2)
        assert mem.snapshot_page(page) == [0, 2, 0, 0, 0, 0, 0, 0]

    def test_free_and_reallocation_reads_all_zeros(self):
        mem, page = self._frame()
        mem.write_run(page, 0, [1, 2, 3])
        mem.free_frame(page)
        again = mem.allocate_frame()
        assert again == page
        assert mem.snapshot_page(again) == [0] * 8
        assert [mem.read(again, i) for i in range(8)] == [0] * 8

    def test_words_of_is_a_full_page(self):
        mem, page = self._frame()
        assert len(mem.words_of(page)) == 8
        other = mem.allocate_frame()
        mem.write(other, 2, 7)
        words = mem.words_of(other)
        assert len(words) == 8
        assert list(words) == [0, 0, 7, 0, 0, 0, 0, 0]

    def test_write_run_past_the_prefix_zero_extends(self):
        mem, page = self._frame()
        mem.write(page, 0, 1)
        mem.write_run(page, 4, [5, 6])
        assert len(mem._storage[page]) == 6
        assert mem.snapshot_page(page) == [1, 0, 0, 0, 5, 6, 0, 0]


class TestTLB:
    def test_hit_and_miss_counting(self):
        tlb = TLB(entries=2)
        assert tlb.lookup(1) is None
        tlb.insert(1, PhysPage(0, 5))
        assert tlb.lookup(1) == PhysPage(0, 5)
        assert tlb.hits == 1
        assert tlb.misses == 1

    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.insert(1, PhysPage(0, 1))
        tlb.insert(2, PhysPage(0, 2))
        tlb.lookup(1)            # 1 is now most recent
        tlb.insert(3, PhysPage(0, 3))  # evicts 2
        assert tlb.lookup(2) is None
        assert tlb.lookup(1) is not None
        assert tlb.lookup(3) is not None

    def test_flush_single_and_all(self):
        tlb = TLB(entries=4)
        tlb.insert(1, PhysPage(0, 1))
        tlb.insert(2, PhysPage(0, 2))
        tlb.flush(1)
        assert tlb.lookup(1) is None
        assert tlb.lookup(2) is not None
        tlb.flush_all()
        assert tlb.lookup(2) is None


class TestPageTable:
    @staticmethod
    def _table(resolutions):
        params = TimingParams(page_words=64, tlb_entries=2)

        def central(node_id, vpage):
            if vpage in resolutions:
                return resolutions[vpage]
            raise MappingError(f"vpage {vpage}")

        return PageTable(0, params, central), params

    def test_cost_ladder_central_then_walk_then_tlb(self):
        pt, params = self._table({7: PhysPage(2, 3)})
        phys, cycles = pt.translate_page(7)
        assert phys == PhysPage(2, 3)
        assert cycles == params.tlb_miss_cycles  # central-table fill
        phys, cycles = pt.translate_page(7)
        assert cycles == 0  # TLB hit
        pt.tlb.flush(7)
        phys, cycles = pt.translate_page(7)
        assert cycles == params.page_table_walk_cycles  # local table walk

    def test_translate_word_address(self):
        pt, params = self._table({0: PhysPage(1, 9)})
        paddr, _ = pt.translate(5)
        assert paddr == PhysPage(1, 9).word(5)
        paddr, _ = pt.translate(params.page_words - 1)
        assert paddr.offset == params.page_words - 1

    def test_unknown_page_raises_mapping_error(self):
        pt, _ = self._table({})
        with pytest.raises(MappingError):
            pt.translate_page(99)

    def test_install_avoids_central_lookup(self):
        pt, _ = self._table({})
        pt.install(4, PhysPage(0, 8))
        phys, cycles = pt.translate_page(4)
        assert phys == PhysPage(0, 8)
        assert cycles == 0
        assert pt.faults == 0

    def test_invalidate_forces_refault(self):
        pt, _ = self._table({4: PhysPage(1, 1)})
        pt.translate_page(4)
        pt.invalidate(4)
        assert pt.mapping_of(4) is None
        _, cycles = pt.translate_page(4)
        assert cycles > 0
        assert pt.faults == 2

    def test_negative_vaddr_rejected(self):
        pt, _ = self._table({})
        with pytest.raises(MappingError):
            pt.translate(-1)
