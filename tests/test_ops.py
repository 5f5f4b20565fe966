"""Unit tests for the Table 3-1 delayed-operation semantics."""

import pytest

from repro.core.ops import execute_op
from repro.core.params import TOP_BIT, OpCode
from repro.errors import ProtocolError

PAGE_WORDS = 64
RING_BASE = 8


def run(op, offset, operand, mem):
    """Execute ``op`` against a dict-backed page."""
    return execute_op(
        op,
        offset,
        operand,
        read=lambda off: mem.get(off, 0),
        page_words=PAGE_WORDS,
        ring_base=RING_BASE,
    )


def apply_writes(mem, outcome):
    for offset, value in outcome.writes:
        mem[offset] = value


class TestXchng:
    def test_returns_old_and_stores_new(self):
        mem = {0: 111}
        out = run(OpCode.XCHNG, 0, 222, mem)
        assert out.returned == 111
        assert out.writes == [(0, 222)]

    def test_stored_value_masked_to_30_bits(self):
        out = run(OpCode.XCHNG, 0, 0xFFFF_FFFF, {})
        assert out.writes == [(0, 0x3FFF_FFFF)]


class TestCondXchng:
    def test_writes_when_top_bit_set(self):
        mem = {0: TOP_BIT | 5}
        out = run(OpCode.COND_XCHNG, 0, 7, mem)
        assert out.returned == TOP_BIT | 5
        assert out.writes == [(0, 7)]

    def test_no_write_when_top_bit_clear(self):
        out = run(OpCode.COND_XCHNG, 0, 7, {0: 5})
        assert out.returned == 5
        assert out.writes == []


class TestFetchAdd:
    def test_positive_increment(self):
        out = run(OpCode.FETCH_ADD, 3, 5, {3: 10})
        assert out.returned == 10
        assert out.writes == [(3, 15)]

    def test_negative_increment_via_twos_complement(self):
        out = run(OpCode.FETCH_ADD, 0, 0xFFFF_FFFF, {0: 10})  # -1
        assert out.writes == [(0, 9)]

    def test_wraps_modulo_2_32(self):
        out = run(OpCode.FETCH_ADD, 0, 1, {0: 0xFFFF_FFFF})
        assert out.writes == [(0, 0)]

    def test_decrement_below_zero_wraps(self):
        out = run(OpCode.FETCH_ADD, 0, 0xFFFF_FFFF, {0: 0})
        assert out.writes == [(0, 0xFFFF_FFFF)]


class TestFetchSet:
    def test_sets_top_bit_and_returns_old(self):
        out = run(OpCode.FETCH_SET, 0, 0, {0: 3})
        assert out.returned == 3
        assert out.writes == [(0, TOP_BIT | 3)]

    def test_already_set_is_idempotent(self):
        out = run(OpCode.FETCH_SET, 0, 0, {0: TOP_BIT | 3})
        assert out.returned == TOP_BIT | 3
        assert out.writes == [(0, TOP_BIT | 3)]


class TestMinXchng:
    def test_stores_smaller(self):
        out = run(OpCode.MIN_XCHNG, 0, 5, {0: 9})
        assert out.returned == 9
        assert out.writes == [(0, 5)]

    def test_keeps_smaller_original(self):
        out = run(OpCode.MIN_XCHNG, 0, 9, {0: 5})
        assert out.returned == 5
        assert out.writes == []

    def test_equal_means_no_write(self):
        out = run(OpCode.MIN_XCHNG, 0, 5, {0: 5})
        assert out.writes == []

    def test_unsigned_comparison(self):
        # 0x80000000 is a big unsigned number, not a negative one.
        out = run(OpCode.MIN_XCHNG, 0, TOP_BIT, {0: 5})
        assert out.writes == []


class TestDelayedRead:
    def test_returns_value_without_writes(self):
        out = run(OpCode.DELAYED_READ, 2, 0, {2: 77})
        assert out.returned == 77
        assert out.writes == []


class TestQueue:
    def test_enqueue_into_empty_slot(self):
        mem = {0: RING_BASE}  # tail offset word at page offset 0
        out = run(OpCode.QUEUE, 0, 42, mem)
        assert out.returned == 0            # old tail word, top bit clear
        assert (RING_BASE, 42 | TOP_BIT) in out.writes
        assert (0, RING_BASE + 1) in out.writes

    def test_enqueue_full_returns_occupied_word(self):
        mem = {0: RING_BASE, RING_BASE: TOP_BIT | 9}
        out = run(OpCode.QUEUE, 0, 42, mem)
        assert out.returned == TOP_BIT | 9
        assert out.writes == []

    def test_enqueue_masks_item_to_31_bits(self):
        mem = {0: RING_BASE}
        out = run(OpCode.QUEUE, 0, 0xFFFF_FFFF, mem)
        assert out.writes[0] == (RING_BASE, 0xFFFF_FFFF)  # 31 bits + top bit

    def test_tail_wraps_modulo_ring(self):
        mem = {0: PAGE_WORDS - 1}
        out = run(OpCode.QUEUE, 0, 1, mem)
        assert (0, RING_BASE) in out.writes  # wrapped back to ring base

    def test_bad_offset_raises(self):
        with pytest.raises(ProtocolError):
            run(OpCode.QUEUE, 0, 1, {0: 2})  # offset inside header area
        with pytest.raises(ProtocolError):
            run(OpCode.QUEUE, 0, 1, {0: PAGE_WORDS})


class TestDequeue:
    def test_dequeue_valid_element(self):
        mem = {1: RING_BASE, RING_BASE: TOP_BIT | 42}
        out = run(OpCode.DEQUEUE, 1, 0, mem)
        assert out.returned == TOP_BIT | 42
        assert (RING_BASE, 42) in out.writes          # top bit cleared
        assert (1, RING_BASE + 1) in out.writes       # head advanced

    def test_dequeue_empty_returns_clear_word(self):
        mem = {1: RING_BASE, RING_BASE: 42}  # stale value, top bit clear
        out = run(OpCode.DEQUEUE, 1, 0, mem)
        assert out.returned == 42
        assert out.writes == []

    def test_head_wraps_modulo_ring(self):
        mem = {1: PAGE_WORDS - 1, PAGE_WORDS - 1: TOP_BIT | 7}
        out = run(OpCode.DEQUEUE, 1, 0, mem)
        assert (1, RING_BASE) in out.writes


class TestQueueRoundTrip:
    def test_fifo_over_wrap_boundary(self):
        """Push/pop a stream larger than the ring and check FIFO order."""
        mem = {0: RING_BASE, 1: RING_BASE}
        popped = []
        ring = PAGE_WORDS - RING_BASE
        for i in range(ring * 2 + 5):
            out = run(OpCode.QUEUE, 0, i + 1, mem)
            assert not out.returned & TOP_BIT, "queue unexpectedly full"
            apply_writes(mem, out)
            out = run(OpCode.DEQUEUE, 1, 0, mem)
            assert out.returned & TOP_BIT
            apply_writes(mem, out)
            popped.append(out.returned & 0x7FFF_FFFF)
        assert popped == [i + 1 for i in range(ring * 2 + 5)]

    def test_fill_to_capacity_then_drain(self):
        mem = {0: RING_BASE, 1: RING_BASE}
        ring = PAGE_WORDS - RING_BASE
        pushed = 0
        while True:
            out = run(OpCode.QUEUE, 0, pushed + 1, mem)
            if out.returned & TOP_BIT:
                break
            apply_writes(mem, out)
            pushed += 1
        assert pushed == ring  # full ring usable
        drained = []
        while True:
            out = run(OpCode.DEQUEUE, 1, 0, mem)
            if not out.returned & TOP_BIT:
                break
            apply_writes(mem, out)
            drained.append(out.returned & 0x7FFF_FFFF)
        assert drained == [i + 1 for i in range(ring)]


def test_unknown_op_rejected():
    for op in ("bogus", "space"):
        with pytest.raises(ProtocolError):
            execute_op(op, 0, 0, read=lambda o: 0, page_words=64, ring_base=8)
