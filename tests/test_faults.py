"""Fault injection and the reliable-delivery recovery layer.

Covers the fault model (seeded FaultPlan decisions, link outages,
blackholes), the recovery machinery (sequence numbers, dedup window,
retransmission with backoff, NodeUnreachable on budget exhaustion), the
fault-aware checkers, and the accounting paths shared between the
lossless and faulty fabrics.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import run_seeds
from repro.check.invariants import InvariantMonitor
from repro.check.oracle import CoherenceOracle
from repro.core.params import TimingParams
from repro.core.reliable import _InChannel
from repro.errors import ConfigError, DeadlockError, NodeUnreachable
from repro.machine import PlusMachine
from repro.network.fabric import FabricStats
from repro.network.faults import FaultPlan, _LinkOutages
from repro.network.message import Message, MsgKind
from repro.network.topology import TOPOLOGIES, Mesh, make_topology
from repro.sim.engine import Engine
from repro.stats.trace import ProtocolTrace


# ----------------------------------------------------------------------
# FaultPlan: seeded, deterministic wire decisions.
# ----------------------------------------------------------------------
def _judged(plan, n=200, dst=1):
    mesh = Mesh(4)
    plan.bind(mesh)
    steps = mesh.route_steps(0, dst)
    msgs = [Message(kind=MsgKind.UPDATE, src=0, dst=dst) for _ in range(n)]
    return [plan.judge(m, i, 0, steps) for i, m in enumerate(msgs)]


def test_fault_plan_is_deterministic_per_seed():
    a = _judged(FaultPlan(7, drop_prob=0.2, dup_prob=0.2, jitter=5))
    b = _judged(FaultPlan(7, drop_prob=0.2, dup_prob=0.2, jitter=5))
    c = _judged(FaultPlan(8, drop_prob=0.2, dup_prob=0.2, jitter=5))
    assert a == b
    assert a != c
    fates = {fate for fate, _ in a}
    assert "drop" in fates and "sent" in fates and "sent+dup" in fates


def test_fault_plan_judge_shapes():
    plan = FaultPlan(3, drop_prob=0.3, dup_prob=0.3, jitter=4)
    for fate, delays in _judged(plan):
        if fate in ("drop", "outage"):
            assert delays == ()
        elif fate == "sent":
            assert len(delays) == 1 and 0 <= delays[0] <= 4
        else:
            assert fate == "sent+dup"
            first, second = delays
            assert second > first  # the duplicate strictly trails


def test_lossless_plan_never_drops():
    for fate, delays in _judged(FaultPlan(1)):
        assert fate == "sent" and delays == (0,)


def test_blackhole_swallows_every_send():
    plan = FaultPlan(1, blackholes=[1])
    assert all(fate == "outage" for fate, _ in _judged(plan, dst=1))
    assert all(fate == "sent" for fate, _ in _judged(plan, dst=2))


def _bound(plan):
    plan.bind(Mesh(4))
    return plan


def test_outage_windows_are_seeded_and_sized():
    plan = _bound(FaultPlan(5, outage_rate=1 / 500, outage_cycles=100))
    windows = plan.link_outages((0, 1)).windows_until(20_000)
    again = _bound(FaultPlan(5, outage_rate=1 / 500, outage_cycles=100))
    assert windows == again.link_outages((0, 1)).windows_until(20_000)
    assert windows, "expected at least one outage before the horizon"
    assert all(end - start == 100 for start, end in windows)
    # A different link gets its own independent schedule.
    other = again.link_outages((1, 0)).windows_until(20_000)
    assert other != windows


def test_outage_drops_messages_while_link_is_down():
    plan = _bound(FaultPlan(5, outage_rate=1 / 500, outage_cycles=100))
    probe = _bound(FaultPlan(5, outage_rate=1 / 500, outage_cycles=100))
    start, _end = probe.link_outages((0, 1)).windows_until(20_000)[0]
    msg = Message(kind=MsgKind.UPDATE, src=0, dst=1)
    steps = Mesh(4).route_steps(0, 1)
    assert plan.judge(msg, start, 0, steps) == ("outage", ())


@st.composite
def _grids(draw):
    """Meshes and tori up to 5x5, 2-wide wrapped dims and ragged last
    rows included."""
    width = draw(st.integers(1, 5))
    height = draw(st.integers(1, 5))
    n_nodes = draw(st.integers(1, width * height))
    name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    return make_topology(name, n_nodes, width, height)


@settings(max_examples=200, deadline=None)
@given(
    grid=_grids(),
    seed=st.integers(0, 1_000),
    sends=st.lists(
        st.tuples(st.integers(0, 24), st.integers(0, 24), st.integers(0, 300)),
        min_size=1,
        max_size=40,
    ),
)
def test_outages_judged_by_link_id_match_the_tuple_path(grid, seed, sends):
    rate, cycles = 1 / 200, 60
    plan = FaultPlan(seed, outage_rate=rate, outage_cycles=cycles)
    plan.bind(grid)
    # Reference: schedules keyed by explicit route tuples.
    reference = {}
    now = 0
    for a, b, gap in sends:
        src, dst = a % grid.n_nodes, b % grid.n_nodes
        now += gap
        path = grid.route(src, dst)
        expected = False
        for link in path:
            assert grid.link_of(grid.link_id(*link)) == link
            sched = reference.get(link)
            if sched is None:
                sched = reference[link] = _LinkOutages(
                    random.Random(f"{seed}:faults:link:{link}"), rate, cycles
                )
            expected = expected or sched.down(now)
        msg = Message(kind=MsgKind.UPDATE, src=src, dst=dst)
        fate, _ = plan.judge(msg, now, src, grid.route_steps(src, dst))
        assert (fate == "outage") == expected


def test_fault_plan_validation():
    with pytest.raises(ConfigError):
        FaultPlan(1, drop_prob=1.5)
    with pytest.raises(ConfigError):
        FaultPlan(1, dup_prob=-0.1)
    with pytest.raises(ConfigError):
        FaultPlan(1, jitter=-1)
    with pytest.raises(ConfigError):
        FaultPlan(1, outage_rate=1 / 100)  # needs outage_cycles


# ----------------------------------------------------------------------
# Engine timers: the recovery layer's clockwork.
# ----------------------------------------------------------------------
def test_engine_timer_fires_at_delay():
    engine = Engine()
    fired = []
    engine.timer(10, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [10]


def test_cancelled_timer_is_a_no_op():
    engine = Engine()
    fired = []
    timer = engine.timer(5, lambda: fired.append("no"))
    timer.cancel()
    timer.cancel()  # idempotent
    engine.timer(9, lambda: fired.append("yes"))
    engine.run()
    assert fired == ["yes"]


# ----------------------------------------------------------------------
# Receiver dedup window: exactly-once, in-order, under any wire.
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=24), max_size=80)
)
def test_in_channel_never_double_delivers(wire_seqs):
    """Whatever sequence-number stream the wire produces — duplicates,
    reordering, gaps — the channel delivers the contiguous in-order
    prefix of the distinct offered numbers, each exactly once."""
    channel = _InChannel(src=0)
    delivered = []
    for seq in wire_seqs:
        ready = channel.offer(Message(kind=MsgKind.UPDATE, src=0, dst=1, seq=seq))
        if ready is not None:
            delivered.extend(m.seq for m in ready)
    assert delivered == list(range(len(delivered)))
    expected = 0
    seen = set(wire_seqs)
    while expected in seen:
        expected += 1
    assert len(delivered) == expected
    assert channel.duplicates == sum(
        wire_seqs.count(s) - 1 for s in set(wire_seqs)
    )


# ----------------------------------------------------------------------
# End-to-end recovery on an unreliable mesh.
# ----------------------------------------------------------------------
def _stormy_run(seed, **knobs):
    machine = PlusMachine(n_nodes=4)
    monitor = InvariantMonitor(capacity=500_000).install(machine)
    machine.install_faults(FaultPlan(seed, **knobs))
    seg = machine.shm.alloc(16, home=0, replicas=[1, 2])

    def worker(ctx, me):
        for i in range(25):
            yield from ctx.write(seg.addr((me * 5 + i) % 16), me * 1000 + i)
            if i % 6 == 0:
                yield from ctx.read(seg.addr(i % 16))
        yield from ctx.fence()

    for node in range(4):
        machine.spawn(node, worker, node)
    machine.run(max_cycles=10_000_000)
    return machine, monitor


def test_faulty_run_recovers_and_stays_coherent():
    machine, monitor = _stormy_run(
        11, drop_prob=0.04, dup_prob=0.04, jitter=10
    )
    stats = machine.fabric.stats
    assert stats.drops > 0 and stats.dups > 0
    assert stats.retransmits > 0 and stats.recovered > 0
    assert not monitor.violations
    report = CoherenceOracle(machine, monitor).check()
    assert report.ok, report.summary()


def test_faulty_run_replays_exactly():
    a, _ = _stormy_run(13, drop_prob=0.03, dup_prob=0.03, jitter=6,
                       outage_rate=1 / 25_000, outage_cycles=400)
    b, _ = _stormy_run(13, drop_prob=0.03, dup_prob=0.03, jitter=6,
                       outage_rate=1 / 25_000, outage_cycles=400)
    sa, sb = a.fabric.stats, b.fabric.stats
    assert (sa.total_messages, sa.drops, sa.dups, sa.retransmits) == (
        sb.total_messages, sb.drops, sb.dups, sb.retransmits
    )
    assert a.engine.now == b.engine.now


def test_faulty_trace_records_fates_and_applications():
    machine, monitor = _stormy_run(17, drop_prob=0.05, jitter=4)
    fates = {e.fate for e in monitor}
    assert "drop" in fates and "sent" in fates
    for entry in monitor:
        if entry.fate in ("drop", "outage"):
            assert entry.arrive == -1
        if entry.kind is not MsgKind.NET_ACK:
            assert entry.seq >= 0  # everything protocol-level is sequenced
    assert monitor.applied, "recovery layer reported no applications"
    # Exactly-once application: each applied msg_id has one time.
    wire_ids = {
        e.msg_id for e in monitor if e.kind is not MsgKind.NET_ACK
    }
    assert set(monitor.applied) <= wire_ids


def test_lossless_run_is_untouched_by_the_recovery_machinery():
    machine = PlusMachine(n_nodes=4)
    trace = ProtocolTrace().install(machine)
    seg = machine.shm.alloc(4, home=1, replicas=[2])

    def worker(ctx):
        yield from ctx.write(seg.addr(0), 7)
        yield from ctx.fence()
        yield from ctx.read(seg.addr(1))

    machine.spawn(0, worker)
    machine.run()
    stats = machine.fabric.stats
    assert stats.drops == stats.dups == stats.retransmits == 0
    assert stats.messages_by_kind[MsgKind.NET_ACK] == 0
    assert all(e.seq == -1 for e in trace)
    assert not trace.applied


# ----------------------------------------------------------------------
# Graceful degradation: retry budget and the deadlock watchdog.
# ----------------------------------------------------------------------
def test_exhausted_retries_raise_node_unreachable_at_the_right_cycle():
    timeout = 100
    params = TimingParams(
        ack_timeout_cycles=timeout,
        ack_backoff_max_cycles=6_400,
        net_max_retries=2,
    )
    machine = PlusMachine(n_nodes=2, params=params)
    trace = ProtocolTrace().install(machine)
    machine.install_faults(FaultPlan(1, blackholes=[1]))
    seg = machine.shm.alloc(2, home=1)

    def worker(ctx):
        yield from ctx.write(seg.addr(0), 1)
        yield from ctx.fence()

    machine.spawn(0, worker)
    with pytest.raises(NodeUnreachable) as info:
        machine.run()
    err = info.value
    assert err.node == 1
    assert err.excerpt, "expected a wire-transcript excerpt"
    # Retransmissions fire at t+T, t+3T and t+7T (exponential backoff);
    # the third firing exceeds net_max_retries=2 and gives up.
    sent = next(e.time for e in trace if e.kind is MsgKind.WRITE_REQ)
    assert err.cycle == sent + 7 * timeout
    assert machine.fabric.stats.retransmits == 2


def test_faults_without_recovery_trip_the_watchdog():
    machine = PlusMachine(n_nodes=2)
    ProtocolTrace().install(machine)
    # Install on the fabric only: every message is lost and nothing
    # retries, the exact lost-ack hang the watchdog must name.
    machine.fabric.install_faults(FaultPlan(1, drop_prob=1.0))
    seg = machine.shm.alloc(2, home=1)

    def worker(ctx):
        yield from ctx.write(seg.addr(0), 1)
        yield from ctx.fence()

    machine.spawn(0, worker)
    with pytest.raises(DeadlockError) as info:
        machine.run()
    text = str(info.value)
    assert "fault plan active" in text
    assert "lost message" in text
    assert info.value.excerpt, "watchdog should quote the wire transcript"


def test_fault_plan_must_be_installed_before_traffic():
    machine = PlusMachine(n_nodes=2)
    seg = machine.shm.alloc(2, home=1)

    def worker(ctx):
        yield from ctx.write(seg.addr(0), 1)
        yield from ctx.fence()

    machine.spawn(0, worker)
    machine.run()
    with pytest.raises(ConfigError):
        machine.install_faults(FaultPlan(1, drop_prob=0.5))


# ----------------------------------------------------------------------
# Fault-aware invariant monitor.
# ----------------------------------------------------------------------
def _ack(xid, msg_id=0):
    # msg_id is given explicitly: in the real system it is stamped by
    # Fabric.send, which these monitor-only unit tests bypass.
    return Message(kind=MsgKind.WRITE_ACK, src=1, dst=0, xid=xid, msg_id=msg_id)


def test_monitor_allows_same_message_retransmitted_under_faults():
    monitor = InvariantMonitor(strict=False, fault_plan=FaultPlan(1))
    ack = _ack(5)
    monitor.record(10, ack)
    monitor.record(400, ack)  # same msg_id: a wire retransmission
    assert monitor.violations == []


def test_monitor_still_catches_distinct_duplicate_acks_under_faults():
    monitor = InvariantMonitor(strict=False, fault_plan=FaultPlan(1))
    monitor.record(10, _ack(5, msg_id=0))
    # New msg_id duplicating the chain key: a protocol bug, not a wire
    # retransmission.
    monitor.record(400, _ack(5, msg_id=1))
    assert any("ack-exactly-once" in v for v in monitor.violations)


def test_monitor_without_plan_keeps_strict_wire_semantics():
    monitor = InvariantMonitor(strict=False)
    ack = _ack(5)
    monitor.record(10, ack)
    monitor.record(400, ack)  # even the same msg_id may not repeat
    assert any("ack-exactly-once" in v for v in monitor.violations)


def test_monitor_adopts_fabric_plan_on_install():
    machine = PlusMachine(n_nodes=2)
    plan = machine.install_faults(FaultPlan(9, drop_prob=0.1))
    monitor = InvariantMonitor().install(machine)
    assert monitor.fault_plan is plan
    monitor.uninstall()


# ----------------------------------------------------------------------
# Shared traffic accounting (every send path counts the same way).
# ----------------------------------------------------------------------
class _ShadowStats(ProtocolTrace):
    """Recompute the fabric's counters independently via the trace hook."""

    def __init__(self, mesh):
        super().__init__(capacity=1_000_000)
        self.mesh = mesh
        self.stats = FabricStats()

    def record(self, time, msg, arrive=-1, fate="sent"):
        super().record(time, msg, arrive, fate)
        stats = self.stats
        stats._kind_counts[msg.kind.idx] += 1
        stats.total_messages += 1
        stats.total_hops += self.mesh.hops(msg.src, msg.dst)
        stats.total_bytes += msg.size_bytes


def _traffic_totals(stats):
    return (stats.total_messages, stats.total_hops, stats.total_bytes)


def test_traffic_totals_pinned_for_a_deterministic_workload():
    machine = PlusMachine(n_nodes=4)
    shadow = _ShadowStats(machine.mesh).install(machine)
    seg = machine.shm.alloc(4, home=1, replicas=[2])

    def worker(ctx):
        yield from ctx.write(seg.addr(0), 7)
        yield from ctx.fence()
        yield from ctx.read(seg.addr(1))

    machine.spawn(0, worker)
    machine.run()
    stats = machine.fabric.stats
    # One remote write (req + update + ack) and one remote read.
    assert _traffic_totals(stats) == (5, 6, 68)
    assert stats.messages_by_kind[MsgKind.WRITE_REQ] == 1
    assert stats.messages_by_kind[MsgKind.UPDATE] == 1
    assert stats.messages_by_kind[MsgKind.WRITE_ACK] == 1
    assert stats.messages_by_kind[MsgKind.READ_REQ] == 1
    assert stats.messages_by_kind[MsgKind.READ_RESP] == 1
    assert _traffic_totals(shadow.stats) == _traffic_totals(stats)
    assert shadow.stats.messages_by_kind == stats.messages_by_kind


def _entry_bytes(entry):
    base = entry.kind.base_bytes
    if entry.kind is MsgKind.UPDATE and len(entry.writes) > 1:
        return base + 8 * (len(entry.writes) - 1)
    if entry.kind is MsgKind.INVALIDATE and len(entry.writes) > 1:
        return base + 4 * (len(entry.writes) - 1)
    return base


def test_faulty_sends_route_through_the_same_accounting():
    machine, monitor = _stormy_run(19, drop_prob=0.05, dup_prob=0.05)
    stats = machine.fabric.stats
    wire_entries = [e for e in monitor]
    assert stats.total_messages == len(wire_entries)
    assert stats.total_bytes == sum(_entry_bytes(e) for e in wire_entries)
    # Dropped sends still count as wire traffic the sender paid for.
    assert stats.drops == sum(
        1 for e in wire_entries if e.fate in ("drop", "outage")
    )
    assert stats.dups == sum(
        1 for e in wire_entries if e.fate == "sent+dup"
    )


# ----------------------------------------------------------------------
# The stress harness under --faults.
# ----------------------------------------------------------------------
def test_fault_sweep_is_green_and_actually_faulty():
    results = run_seeds(4, faults=True)
    assert len(results) == 4
    assert all(r.ok for r in results), [
        r.describe() for r in results if not r.ok
    ]
    assert sum(r.retransmits for r in results) > 0
    assert sum(r.drops for r in results) > 0


def test_fault_overrides_pin_the_knobs():
    results = run_seeds(
        2,
        faults=True,
        fault_overrides={"drop_prob": 0.015, "outage_rate": 0.0},
    )
    for r in results:
        assert r.config.drop_prob == 0.015
        assert r.config.outage_rate == 0.0
        assert r.ok, r.describe()
