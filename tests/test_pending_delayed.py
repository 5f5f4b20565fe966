"""Unit tests for the pending-writes and delayed-operations caches."""

import pytest

from repro.core import pending
from repro.core.delayed import DelayedOpsCache, Token
from repro.core.params import OpCode
from repro.core.pending import PendingWrites
from repro.errors import ProtocolError, ThreadError
from repro.memory.address import PhysAddr
from repro.sim.process import WaitQueue

A = PhysAddr(0, 0, 0)
B = PhysAddr(0, 0, 1)


class TestPendingWrites:
    def test_add_and_complete(self):
        pw = PendingWrites(capacity=2)
        xid = pw.add(A)
        assert pw.pending_at(A)
        assert not pw.pending_at(B)
        pw.complete(xid)
        assert not pw.pending_at(A)
        assert pw.is_empty

    def test_capacity_enforced(self):
        pw = PendingWrites(capacity=1)
        pw.add(A)
        assert pw.is_full
        with pytest.raises(ProtocolError):
            pw.add(B)

    def test_unknown_completion_rejected(self):
        pw = PendingWrites(capacity=2)
        with pytest.raises(ProtocolError):
            pw.complete(999)

    def test_two_writes_same_address_both_must_finish(self):
        pw = PendingWrites(capacity=4)
        x1 = pw.add(A)
        x2 = pw.add(A)
        pw.complete(x1)
        assert pw.pending_at(A)  # second write still out
        pw.complete(x2)
        assert not pw.pending_at(A)

    def test_when_room_immediate_if_not_full(self):
        pw = PendingWrites(capacity=1)
        calls = []
        pw.when_room(lambda: calls.append(1))
        assert calls == [1]
        assert pw.stall_events == 0

    def test_when_room_wakes_in_fifo_order(self):
        pw = PendingWrites(capacity=1)
        x1 = pw.add(A)
        order = []
        pw.when_room(lambda: order.append("first"))
        pw.when_room(lambda: order.append("second"))
        assert pw.stall_events == 2
        pw.complete(x1)
        assert order == ["first"]  # one wake per completion
        pw.complete(pw.add(B))
        assert order == ["first", "second"]

    def test_when_clear_fires_when_address_drains(self):
        pw = PendingWrites(capacity=4)
        x1 = pw.add(A)
        got = []
        pw.when_clear(A, lambda: got.append("a"))
        pw.when_clear(B, lambda: got.append("b"))  # immediate, not pending
        assert got == ["b"]
        pw.complete(x1)
        assert got == ["b", "a"]

    def test_reads_parked_on_one_address_share_a_queue_in_fifo_order(
        self, monkeypatch
    ):
        built = []

        class CountingQueue(WaitQueue):
            def __init__(self, name=""):
                built.append(name)
                super().__init__(name)

        monkeypatch.setattr(pending, "WaitQueue", CountingQueue)
        pw = PendingWrites(capacity=4)
        xid = pw.add(A)
        built.clear()
        got = []
        pw.when_clear(A, lambda: got.append("first"))
        queue = pw._addr_waiters[A]
        pw.when_clear(A, lambda: got.append("second"))
        assert pw._addr_waiters == {A: queue} and len(queue) == 2
        assert len(built) == 1  # built on the first park only
        pw.complete(xid)
        assert got == ["first", "second"]
        assert not pw._addr_waiters

    def test_when_empty_fires_on_drain(self):
        pw = PendingWrites(capacity=4)
        x1, x2 = pw.add(A), pw.add(B)
        got = []
        pw.when_empty(lambda: got.append(1))
        pw.complete(x1)
        assert got == []
        pw.complete(x2)
        assert got == [1]

    def test_occupancy_instrumentation(self):
        pw = PendingWrites(capacity=4)
        xids = [pw.add(A) for _ in range(3)]
        for x in xids:
            pw.complete(x)
        assert pw.peak_occupancy == 3
        assert pw.total_writes == 3


class TestDelayedOpsCache:
    def test_allocate_fill_take(self):
        cache = DelayedOpsCache(node_id=0, n_slots=2)
        token = cache.allocate(OpCode.FETCH_ADD)
        assert cache.in_flight == 1
        assert cache.poll(token) is None
        cache.fill(token, 42)
        assert cache.poll(token) == 42
        assert cache.take(token) == 42
        assert cache.in_flight == 0

    def test_eight_slot_overflow(self):
        cache = DelayedOpsCache(0, n_slots=8)
        for _ in range(8):
            cache.allocate(OpCode.XCHNG)
        assert not cache.has_free_slot
        with pytest.raises(ProtocolError):
            cache.allocate(OpCode.XCHNG)

    def test_stale_token_rejected_after_reuse(self):
        cache = DelayedOpsCache(0, n_slots=1)
        t1 = cache.allocate(OpCode.XCHNG)
        cache.fill(t1, 1)
        cache.take(t1)
        t2 = cache.allocate(OpCode.XCHNG)
        assert t2.slot == t1.slot and t2.gen != t1.gen
        with pytest.raises(ThreadError):
            cache.poll(t1)

    def test_wrong_node_token_rejected(self):
        cache = DelayedOpsCache(0, n_slots=1)
        cache.allocate(OpCode.XCHNG)
        with pytest.raises(ThreadError):
            cache.poll(Token(node=1, slot=0, gen=1))

    def test_take_before_fill_is_protocol_error(self):
        cache = DelayedOpsCache(0, n_slots=1)
        t = cache.allocate(OpCode.XCHNG)
        with pytest.raises(ProtocolError):
            cache.take(t)

    def test_double_fill_rejected(self):
        cache = DelayedOpsCache(0, n_slots=1)
        t = cache.allocate(OpCode.XCHNG)
        cache.fill(t, 1)
        with pytest.raises(ProtocolError):
            cache.fill(t, 2)

    def test_when_ready_fires_on_fill(self):
        cache = DelayedOpsCache(0, n_slots=1)
        t = cache.allocate(OpCode.XCHNG)
        got = []
        cache.when_ready(t, lambda: got.append(cache.take(t)))
        assert got == []
        cache.fill(t, 9)
        assert got == [9]

    def test_when_ready_immediate_if_filled(self):
        cache = DelayedOpsCache(0, n_slots=1)
        t = cache.allocate(OpCode.XCHNG)
        cache.fill(t, 5)
        got = []
        cache.when_ready(t, lambda: got.append(1))
        assert got == [1]

    def test_two_waiters_on_one_slot_rejected(self):
        cache = DelayedOpsCache(0, n_slots=1)
        t = cache.allocate(OpCode.XCHNG)
        cache.when_ready(t, lambda: None)
        with pytest.raises(ThreadError):
            cache.when_ready(t, lambda: None)

    def test_slot_waiters_wake_on_take(self):
        cache = DelayedOpsCache(0, n_slots=1)
        t = cache.allocate(OpCode.XCHNG)
        got = []
        cache.when_slot_free(lambda: got.append(1))
        assert got == []
        assert cache.slot_stalls == 1
        cache.fill(t, 0)
        cache.take(t)
        assert got == [1]

    def test_instrumentation(self):
        cache = DelayedOpsCache(0, n_slots=4)
        tokens = [cache.allocate(OpCode.QUEUE) for _ in range(3)]
        for t in tokens:
            cache.fill(t, 0)
            cache.take(t)
        assert cache.total_issued == 3
        assert cache.peak_in_flight == 3
