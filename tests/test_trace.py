"""Protocol-trace tests: assert the wire protocol does what §2.3 says."""

from repro.machine import PlusMachine
from repro.network.message import MsgKind
from repro.stats.trace import ProtocolTrace

from tests.helpers import run_threads


def _traced_machine(n=4):
    machine = PlusMachine(n_nodes=n)
    trace = ProtocolTrace().install(machine)
    return machine, trace


class TestWriteProtocolSequence:
    def test_remote_write_goes_master_first_then_chain_then_ack(self):
        machine, trace = _traced_machine()
        # Master on 0, copies on 1 and 2; writer on 3 holds no copy, and
        # maps the page to its *closest* copy (Section 2.3: "the remote
        # node might not be the master"), which forwards to the master.
        seg = machine.shm.alloc(1, home=0, replicas=[1, 2])

        def writer(ctx):
            yield from ctx.write(seg.base, 5)
            yield from ctx.fence()

        run_threads(machine, (3, writer))
        kinds = [e.kind for e in trace]
        n_copies = 3
        # Requests (1 or 2, depending on which copy node 3 mapped), then
        # updates covering the remaining copies, then the final ack.
        n_reqs = kinds.count(MsgKind.WRITE_REQ)
        assert 1 <= n_reqs <= 2
        assert kinds[:n_reqs] == [MsgKind.WRITE_REQ] * n_reqs
        assert kinds[n_reqs:] == (
            [MsgKind.UPDATE] * (n_copies - 1) + [MsgKind.WRITE_ACK]
        )
        # The last request lands on the master; the ack returns home.
        assert trace.of_kind(MsgKind.WRITE_REQ)[-1].dst == 0
        assert trace.entries[-1].dst == 3
        # The chain visits the copy-list in its exact order.
        chain = machine.os.copylist(seg.vpages[0]).nodes
        updates = trace.of_kind(MsgKind.UPDATE)
        assert [e.dst for e in updates] == chain[1:]

    def test_updates_walk_the_copy_list_in_order(self):
        machine, trace = _traced_machine(8)
        seg = machine.shm.alloc(1, home=0)
        for node in range(1, 5):
            machine.os.replicate(seg.vpages[0], node, after=node - 1)

        def writer(ctx):
            yield from ctx.write(seg.base, 1)
            yield from ctx.fence()

        run_threads(machine, (0, writer))
        updates = trace.of_kind(MsgKind.UPDATE)
        assert [(e.src, e.dst) for e in updates] == [
            (0, 1), (1, 2), (2, 3), (3, 4)
        ]
        # Times strictly increase down the chain.
        times = [e.time for e in updates]
        assert times == sorted(times) and len(set(times)) == len(times)

    def test_local_master_write_without_copies_is_silent(self):
        machine, trace = _traced_machine()
        seg = machine.shm.alloc(1, home=2)

        def writer(ctx):
            yield from ctx.write(seg.base, 1)
            yield from ctx.fence()

        run_threads(machine, (2, writer))
        assert len(trace) == 0

    def test_transaction_filter_groups_one_write(self):
        machine, trace = _traced_machine()
        seg = machine.shm.alloc(2, home=0, replicas=[1])

        def writer(ctx):
            yield from ctx.write(seg.base, 1)
            yield from ctx.write(seg.base + 1, 2)
            yield from ctx.fence()

        run_threads(machine, (2, writer))
        reqs = trace.of_kind(MsgKind.WRITE_REQ)
        assert len(reqs) == 2
        tx = trace.transaction(reqs[0].xid, origin=2)
        assert tx[0].kind is MsgKind.WRITE_REQ
        assert tx[-1].kind is MsgKind.UPDATE  # tail copy is the writer\'s
        assert all(
            e.kind in (MsgKind.WRITE_REQ, MsgKind.UPDATE) for e in tx
        )


class TestRMWProtocolSequence:
    def test_remote_rmw_response_comes_from_master(self):
        machine, trace = _traced_machine()
        seg = machine.shm.alloc(1, home=1, replicas=[2])

        def worker(ctx):
            yield from ctx.fetch_add(seg.base, 1)
            yield from ctx.fence()

        run_threads(machine, (3, worker))
        kinds = [e.kind for e in trace]
        assert kinds == [
            MsgKind.RMW_REQ,    # 3 -> master 1
            MsgKind.RMW_RESP,   # 1 -> 3 (old value, before chain ends)
            MsgKind.UPDATE,     # 1 -> copy 2
            MsgKind.WRITE_ACK,  # 2 -> 3 (chain completion)
        ] or kinds == [
            MsgKind.RMW_REQ,
            MsgKind.UPDATE,
            MsgKind.RMW_RESP,
            MsgKind.WRITE_ACK,
        ]
        resp = trace.of_kind(MsgKind.RMW_RESP)[0]
        assert (resp.src, resp.dst) == (1, 3)

    def test_request_to_non_master_copy_is_forwarded(self):
        # A line mesh makes the distances unambiguous: the worker on
        # node 6 is adjacent to the copy on node 5 and far from the
        # master on node 1.
        machine = PlusMachine(n_nodes=8, width=8, height=1)
        trace = ProtocolTrace().install(machine)
        seg = machine.shm.alloc(1, home=1, replicas=[5])

        def worker(ctx):
            yield from ctx.fetch_add(seg.base, 1)
            yield from ctx.fence()

        run_threads(machine, (6, worker))
        reqs = trace.of_kind(MsgKind.RMW_REQ)
        assert [(e.src, e.dst) for e in reqs] == [(6, 5), (5, 1)]


class TestTraceMechanics:
    def test_capacity_limits_and_counts_drops(self):
        machine = PlusMachine(n_nodes=2)
        trace = ProtocolTrace(capacity=3).install(machine)
        seg = machine.shm.alloc(8, home=1)

        def writer(ctx):
            for i in range(8):
                yield from ctx.write(seg.base + i, i)
            yield from ctx.fence()

        run_threads(machine, (0, writer))
        assert len(trace) == 3
        assert trace.dropped > 0

    def test_dump_is_readable(self):
        machine, trace = _traced_machine()
        seg = machine.shm.alloc(1, home=1)

        def writer(ctx):
            yield from ctx.write(seg.base, 1)
            yield from ctx.fence()

        run_threads(machine, (0, writer))
        text = trace.dump()
        assert "write-req" in text
        assert "0->1" in text

    def test_between_filter(self):
        machine, trace = _traced_machine()
        seg = machine.shm.alloc(1, home=1)

        def reader(ctx):
            yield from ctx.read(seg.base)

        run_threads(machine, (0, reader))
        assert len(trace.between(0, 1)) == 1
        assert len(trace.between(1, 0)) == 1
        assert trace.matching(lambda e: e.kind is MsgKind.READ_RESP)


class TestInstallLifecycle:
    def test_install_is_idempotent(self):
        # Regression: re-installing the same trace used to stack a second
        # fabric hook, double-recording every message.
        machine = PlusMachine(n_nodes=2)
        trace = ProtocolTrace()
        trace.install(machine)
        trace.install(machine)
        trace.install(machine)
        seg = machine.shm.alloc(1, home=1)

        def reader(ctx):
            yield from ctx.read(seg.base)

        run_threads(machine, (0, reader))
        # Exactly one READ_REQ and one READ_RESP — each recorded once.
        assert [e.kind for e in trace] == [
            MsgKind.READ_REQ, MsgKind.READ_RESP
        ]

    def test_uninstall_stops_recording(self):
        machine, trace = _traced_machine(2)
        seg = machine.shm.alloc(1, home=1)

        def reader(ctx):
            yield from ctx.read(seg.base)

        run_threads(machine, (0, reader))
        recorded = len(trace)
        assert recorded == 2
        assert trace.installed
        trace.uninstall()
        assert not trace.installed

        run_threads(machine, (0, reader))
        assert len(trace) == recorded  # entries kept, nothing new

    def test_uninstall_is_safe_when_not_installed(self):
        trace = ProtocolTrace()
        assert not trace.installed
        assert trace.uninstall() is trace  # no-op, no error

    def test_installing_a_second_trace_replaces_the_first(self):
        machine = PlusMachine(n_nodes=2)
        first = ProtocolTrace().install(machine)
        second = ProtocolTrace().install(machine)
        assert not first.installed
        assert second.installed
        seg = machine.shm.alloc(1, home=1)

        def reader(ctx):
            yield from ctx.read(seg.base)

        run_threads(machine, (0, reader))
        assert len(first) == 0
        assert len(second) == 2
        # Uninstalling the stale first trace must not detach the second.
        first.uninstall()
        assert second.installed


class TestLazyMaterialization:
    """Zero-copy tracing: raw tuples must materialize to the same
    entries no matter when materialization happens."""

    @staticmethod
    def _faulty_capture(eager: bool):
        from repro.network.faults import FaultPlan

        if eager:
            class EagerTrace(ProtocolTrace):
                # Materialize after every record: the eager baseline the
                # lazy path must be indistinguishable from.
                def record(self, time, msg, arrive=-1, fate="sent"):
                    super().record(time, msg, arrive, fate)
                    self._materialize()

            trace_cls = EagerTrace
        else:
            trace_cls = ProtocolTrace
        machine = PlusMachine(n_nodes=4)
        trace = trace_cls().install(machine)
        machine.install_faults(
            FaultPlan(21, drop_prob=0.05, dup_prob=0.05, jitter=6)
        )
        seg = machine.shm.alloc(16, home=0, replicas=[1, 2])

        def worker(ctx, me):
            for i in range(25):
                yield from ctx.write(seg.addr((me * 5 + i) % 16), me * 100 + i)
                if i % 6 == 0:
                    yield from ctx.read(seg.addr(i % 16))
            yield from ctx.fence()

        for node in range(4):
            machine.spawn(node, worker, node)
        machine.run(max_cycles=10_000_000)
        return machine, trace

    def test_lazy_capture_equals_eager_capture_on_faulty_run(self):
        machine_a, lazy = self._faulty_capture(eager=False)
        machine_b, eager = self._faulty_capture(eager=True)
        # Identical seeded runs: the wire behaved identically...
        assert machine_a.fabric.stats.drops == machine_b.fabric.stats.drops
        assert machine_a.fabric.stats.drops > 0  # the plan actually bit
        assert lazy._raw and not eager._raw  # lazy really deferred
        # ...and deferred materialization loses or alters nothing,
        # including retransmission fates and reliable-layer seq numbers.
        assert lazy.entries == eager.entries
        assert lazy.applied == eager.applied

    def test_entries_accumulate_across_materializations(self):
        machine, trace = _traced_machine(2)
        seg = machine.shm.alloc(1, home=1)

        def reader(ctx):
            yield from ctx.read(seg.base)

        run_threads(machine, (0, reader))
        first = list(trace.entries)  # forces materialization
        assert first and not trace._raw
        run_threads(machine, (0, reader))
        assert trace._raw  # new raw records since the last access
        combined = trace.entries
        assert combined[: len(first)] == first
        assert len(combined) == 2 * len(first)


class TestEntryContract:
    """What a :class:`TraceEntry` holds, field by field, and how it behaves."""

    FIELDS = (
        "time", "kind", "src", "dst", "page", "offset", "origin", "xid",
        "value", "arrive", "op", "writes", "chain_done", "seq", "msg_id",
        "fate",
    )
    #: sha256 over every field of every entry of faulty stress seed 5
    #: (21 drops, 48 dups).  It covers the fields ``describe()`` leaves
    #: out (``value``, ``writes``, ``chain_done``, ``msg_id``), so a
    #: change to how entries are built cannot hide behind the transcript.
    SEED5_DIGEST = (
        1953, "0eb5feac5a1515e05355dc804da383aaf3cd8c4db3e75a821a311c2dfcac5c16"
    )

    @staticmethod
    def _faulty_entries():
        from repro.check.stress import StressConfig, build_machine

        machine, monitor, spawn_plans = build_machine(
            StressConfig.from_seed(5, faults=True)
        )
        for node_id, program in spawn_plans:
            machine.spawn(node_id, program)
        machine.run()
        monitor.uninstall()
        return monitor.entries

    def test_every_field_of_a_faulty_capture_is_pinned(self):
        import hashlib
        from enum import Enum

        entries = self._faulty_entries()
        fates = {e.fate for e in entries}
        assert {"drop", "sent+dup"} <= fates
        assert any(e.chain_done for e in entries)
        assert any(e.writes for e in entries)
        assert any(e.op is not None for e in entries)
        digest = hashlib.sha256()
        for e in entries:
            row = tuple(
                v.value if isinstance(v, Enum) else v
                for v in (getattr(e, name) for name in self.FIELDS)
            )
            digest.update(repr(row).encode())
        assert (len(entries), digest.hexdigest()) == self.SEED5_DIGEST

    def test_field_order_and_defaults(self):
        from repro.stats.trace import TraceEntry

        assert TraceEntry._fields == self.FIELDS
        e = TraceEntry(0, MsgKind.READ_REQ, 1, 2, None, None, 1, 7, 0)
        assert (e.arrive, e.op, e.writes, e.chain_done) == (-1, None, (), False)
        assert (e.seq, e.msg_id, e.fate) == (-1, -1, "sent")

    def test_entries_are_immutable_and_replaceable(self):
        import pytest

        e = self._faulty_entries()[0]
        with pytest.raises(AttributeError):
            e.arrive = 5
        moved = e._replace(arrive=e.arrive + 3)
        assert moved.arrive == e.arrive + 3
        assert moved._replace(arrive=e.arrive) == e
        assert type(moved) is type(e)
