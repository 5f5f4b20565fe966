"""The coherence oracle: passes honest runs, catches planted bugs."""

import pytest

from repro.check import CoherenceOracle, inject_skip_last_hop
from repro.errors import CoherenceViolation, PlusError, ProtocolError
from repro.machine import PlusMachine
from repro.network.message import MsgKind
from repro.stats.trace import ProtocolTrace


def _writer_program(seg, values):
    def program(ctx):
        for i, value in enumerate(values):
            yield from ctx.write(seg.addr(i % len(seg)), value)
        yield from ctx.fence()

    return program


def _run_traced(machine, *spawns):
    trace = ProtocolTrace().install(machine)
    for node_id, program in spawns:
        machine.spawn(node_id, program)
    machine.run()
    trace.uninstall()
    return trace


# ----------------------------------------------------------------------
# Honest runs pass.
# ----------------------------------------------------------------------
def test_oracle_passes_clean_replicated_run():
    machine = PlusMachine(n_nodes=4)
    seg = machine.shm.alloc(8, home=1, replicas=[0, 2, 3])
    trace = _run_traced(
        machine,
        (0, _writer_program(seg, [11, 22, 33, 44])),
        (2, _writer_program(seg, [55, 66, 77, 88])),
    )
    report = CoherenceOracle(machine, trace).check()
    report.raise_if_failed()
    assert report.ok
    assert report.chains_checked > 0
    assert report.words_replayed > 0
    assert report.layout_static


def test_oracle_passes_rmw_and_read_mix():
    machine = PlusMachine(n_nodes=4)
    seg = machine.shm.alloc(4, home=2, replicas=[0, 1])

    def mixer(ctx):
        yield from ctx.fetch_add(seg.base, 5)
        yield from ctx.write(seg.addr(1), 99)
        value = yield from ctx.read(seg.addr(1))
        assert value == 99
        yield from ctx.xchng(seg.addr(2), 7)
        yield from ctx.fence()

    trace = _run_traced(machine, (0, mixer), (3, mixer))
    report = CoherenceOracle(machine, trace).check()
    assert report.ok, report.violations
    assert report.reads_checked >= 1


def test_oracle_reports_overflowed_capture():
    machine = PlusMachine(n_nodes=4)
    seg = machine.shm.alloc(4, home=1, replicas=[0])
    trace = ProtocolTrace(capacity=2).install(machine)
    machine.spawn(0, _writer_program(seg, [1, 2, 3, 4]))
    machine.run()
    trace.uninstall()
    report = CoherenceOracle(machine, trace).check()
    assert not report.ok
    assert report.violations[0].rule == "capture"


# ----------------------------------------------------------------------
# Mutation smoke tests: a planted protocol bug must be flagged.
# ----------------------------------------------------------------------
def test_oracle_catches_skipped_last_hop():
    """The canonical mutation: the second-to-last copy acks without
    forwarding, so the tail copy silently diverges."""
    machine = PlusMachine(n_nodes=4)
    seg = machine.shm.alloc(4, home=1, replicas=[0, 3])  # 3 copies
    inject_skip_last_hop(machine)
    trace = _run_traced(machine, (2, _writer_program(seg, [7, 8, 9])))

    report = CoherenceOracle(machine, trace).check()
    assert not report.ok
    rules = {v.rule for v in report.violations}
    assert "copy-list-walk" in rules or "convergence" in rules
    # Diagnostics are cycle-stamped and name the failing node.
    flagged = report.violations[0]
    assert flagged.cycle is not None
    assert flagged.node is not None
    with pytest.raises(CoherenceViolation) as exc_info:
        report.raise_if_failed()
    assert "cycle" in str(exc_info.value)


def test_oracle_catches_duplicate_ack():
    """A second mutation: the tail acknowledges every chain twice."""
    machine = PlusMachine(n_nodes=4)
    seg = machine.shm.alloc(4, home=1, replicas=[2])
    for node in machine.nodes:
        cm = node.cm
        orig = cm._complete_chain

        def doubled(origin, xid, op, cm=cm, orig=orig):
            orig(origin, xid, op)
            if origin != cm.node_id:
                cm._emit(MsgKind.WRITE_ACK, origin, None, 0, op, 0, -1, xid)

        cm._complete_chain = doubled

    trace = ProtocolTrace().install(machine)
    machine.spawn(0, _writer_program(seg, [5]))
    with pytest.raises(PlusError):
        # The duplicate completion trips the pending-writes cache at the
        # originator; either way the run must not pass silently.
        machine.run()
        trace.uninstall()
        CoherenceOracle(machine, trace).check().raise_if_failed()


def test_oracle_catches_value_corruption():
    """A third mutation: an intermediate copy applies the wrong value."""
    machine = PlusMachine(n_nodes=4)
    seg = machine.shm.alloc(4, home=1, replicas=[0, 3])
    victim = machine.nodes[0].cm
    orig = victim._write_words

    def corrupting(page, writes, orig=orig):
        orig(page, [(offset, value ^ 1) for offset, value in writes])

    victim._write_words = corrupting
    trace = _run_traced(machine, (2, _writer_program(seg, [10, 20])))
    report = CoherenceOracle(machine, trace).check()
    assert not report.ok
    rules = {v.rule for v in report.violations}
    assert "convergence" in rules or "replay" in rules


# ----------------------------------------------------------------------
# Error context plumbing (errors.py satellites).
# ----------------------------------------------------------------------
def test_protocol_error_renders_context():
    err = ProtocolError(
        "something impossible",
        cycle=123,
        node=2,
        msg="UPDATE 1->2",
        excerpt=["line one", "line two"],
    )
    text = str(err)
    assert "cycle 123" in text
    assert "node 2" in text
    assert "UPDATE 1->2" in text
    assert "line two" in text
    assert err.cycle == 123 and err.node == 2


def test_protocol_error_without_context_is_plain():
    assert str(ProtocolError("plain")) == "plain"


def test_coherence_violation_is_a_protocol_error():
    assert issubclass(CoherenceViolation, ProtocolError)
    assert issubclass(CoherenceViolation, PlusError)
